"""Chaos smoke check: a seeded fault-plan sweep over the pipeline.

Run as ``python -m repro.resilience.smoke`` (CI runs the same sweep
as ``tests/test_chaos.py::TestChaosSweep``). It builds a small
e-commerce lake and answers the same QA suite under fault plans of
increasing rate, asserting the resilience contract:

* ``answer()`` **never raises**, at any fault rate — every backend
  fault is absorbed into a degradation record or a typed abstention;
* degradation records are **accurate**: the number of injected faults
  each answer reports equals what the injector's audit log says fired
  during that question;
* a rate-0 plan is a **no-op**: answers are byte-identical to an
  unprotected pipeline and carry no degradation metadata;
* quality degrades **monotonically** with the fault rate (correct
  answers never increase, degraded answers never decrease);
* chaos runs are **replayable**: two runs of the same seeded plan
  produce byte-identical answers and trace fingerprints (span names,
  attributes and cost deltas — durations excluded, they are wall time).
"""

from __future__ import annotations

import sys
from typing import Dict, List, Tuple

from ..bench import LakeSpec, generate_ecommerce_lake
from ..bench.runner import build_hybrid_system
from ..obs import REGISTRY, Tracer
from .backend import ResilienceConfig
from .faults import FaultPlan

#: Fault rates the sweep exercises, low to high.
RATES = (0.0, 0.1, 0.3, 0.5)

#: Backends every chaos plan faults (the set ``enable_resilience`` wraps).
CHAOS_BACKENDS = ("relational", "document", "textstore", "retriever", "slm")

PLAN_SEED = 23
SLOW_COST = 40
BUDGET = 500_000  # generous per-question deadline, in CostMeter units


def _span_fp(node) -> tuple:
    return (
        node.name,
        tuple(sorted((key, repr(val)) for key, val in node.attrs.items())),
        tuple(sorted(node.cost.items())),
        tuple(_span_fp(child) for child in node.children),
    )


def _trace_fingerprint(tracer: Tracer) -> str:
    """Deterministic trace rendering: names, attrs, costs — no wall time."""
    return repr([_span_fp(root) for root in tracer.roots])


def _chaos_pipeline(lake, rate: float):
    """A fresh built pipeline with a uniform fault plan at *rate*."""
    _system, pipeline = build_hybrid_system(
        lake, seed=13,
        resilience=ResilienceConfig(
            fault_plan=FaultPlan.uniform(
                CHAOS_BACKENDS, rate, seed=PLAN_SEED, slow_cost=SLOW_COST,
            ),
            budget=BUDGET,
        ),
    )
    return pipeline


def _counter(name: str) -> int:
    return REGISTRY.snapshot()["counters"].get(name, 0)


def _run_rate(lake, pairs, rate: float,
              failures: List[str]) -> Tuple[int, int, int, List[str]]:
    """One sweep pass; returns (correct, degraded, injected, fingerprints)."""
    pipeline = _chaos_pipeline(lake, rate)
    injector = pipeline.resilience.injector
    correct = degraded = 0
    fingerprints: List[str] = []
    for pair in pairs:
        log_before = len(injector.log)
        try:
            answer = pipeline.answer(pair.question)
        except Exception as exc:  # the contract under test: never raise
            failures.append(
                "rate %.1f: answer() raised %s(%s) on %r"
                % (rate, type(exc).__name__, exc, pair.question)
            )
            fingerprints.append("<raised>")
            continue
        injected = len(injector.log) - log_before
        record = answer.metadata.get("degradation") or {}
        noted = sum(
            1 for event in record.get("events", ())
            if not event["fatal"] and event["detail"].startswith("injected")
        )
        if injected != noted:
            failures.append(
                "rate %.1f: %d faults fired on %r but the degradation "
                "record notes %d" % (rate, injected, pair.question, noted)
            )
        if injected and not answer.metadata.get("degraded"):
            failures.append(
                "rate %.1f: faults fired on %r but the answer is not "
                "flagged degraded" % (rate, pair.question)
            )
        correct += bool(pair.is_correct(answer))
        degraded += bool(answer.metadata.get("degraded"))
        fingerprints.append(answer.fingerprint())
    return correct, degraded, len(injector.log), fingerprints


def _replay_fingerprints(lake, pairs, rate: float) -> Tuple[str, str]:
    """(answers, trace) fingerprints of one traced run at *rate*."""
    pipeline = _chaos_pipeline(lake, rate)
    tracer = Tracer(meter=pipeline.meter)
    with tracer.activate():
        answers = [pipeline.answer(p.question).fingerprint() for p in pairs]
    return repr(answers), _trace_fingerprint(tracer)


def run_chaos(verbose: bool = False) -> List[str]:
    """Run the sweep; returns a list of failure messages (empty = ok)."""
    failures: List[str] = []
    lake = generate_ecommerce_lake(LakeSpec(n_products=8, seed=13))
    pairs = lake.qa_pairs(per_kind=1)

    # Unprotected reference: what a rate-0 plan must reproduce exactly.
    _system, plain = build_hybrid_system(lake, seed=13)
    reference = [plain.answer(p.question).fingerprint() for p in pairs]

    results: Dict[float, Tuple[int, int, int, List[str]]] = {}
    for rate in RATES:
        retries_before = _counter("resilience.retries")
        results[rate] = _run_rate(lake, pairs, rate, failures)
        if verbose:
            correct, degraded, injected, _ = results[rate]
            print("rate %.1f: correct %d/%d  degraded %d  injected %d  "
                  "retries %d" % (
                      rate, correct, len(pairs), degraded, injected,
                      _counter("resilience.retries") - retries_before,
                  ))

    if results[RATES[0]][3] != reference:
        diverged = [
            p.question for p, a, b in
            zip(pairs, reference, results[RATES[0]][3]) if a != b
        ]
        failures.append(
            "rate-0 plan changed answers for: %s" % "; ".join(diverged)
        )
    if results[RATES[0]][1] != 0:
        failures.append(
            "rate-0 plan produced %d degraded answers (want 0)"
            % results[RATES[0]][1]
        )

    for low, high in zip(RATES, RATES[1:]):
        if results[high][0] > results[low][0]:
            failures.append(
                "quality not monotone: %d correct at rate %.1f but %d "
                "at rate %.1f"
                % (results[low][0], low, results[high][0], high)
            )
        if results[high][1] < results[low][1]:
            failures.append(
                "degradation not monotone: %d degraded at rate %.1f but "
                "%d at rate %.1f"
                % (results[low][1], low, results[high][1], high)
            )

    if _counter("resilience.fault.injected") == 0:
        failures.append("sweep injected no faults at all (plan inert?)")

    answers_a, trace_a = _replay_fingerprints(lake, pairs, 0.3)
    answers_b, trace_b = _replay_fingerprints(lake, pairs, 0.3)
    if answers_a != answers_b:
        failures.append("same seeded plan did not replay identical answers")
    if trace_a != trace_b:
        failures.append("same seeded plan did not replay identical traces")

    return failures


def main() -> int:
    """CLI entry point: print the verdict, return the exit code."""
    failures = run_chaos(verbose=True)
    if failures:
        for failure in failures:
            print("FAIL: %s" % failure)
        return 1
    print("resilience chaos smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
