"""Observability smoke check: one traced end-to-end query suite.

Run as ``python -m repro.obs.smoke`` (CI's fast job). It builds a small
e-commerce lake, answers a mixed QA sample twice — once untraced, once
under an active :class:`~repro.obs.Tracer` — and fails (exit code 1)
when any of the tracing contract's load-bearing properties breaks:

* every required pipeline stage emits at least one span;
* traced and untraced runs return byte-identical answers (tracing must
  never observe-and-change);
* per-span cost deltas reconcile with the system's global cost meter;
* the *disabled* fast path stays cheap: estimated no-op span overhead
  per query is under 3% of the untraced per-query wall time.
"""

from __future__ import annotations

import sys
import time
from typing import List

from ..bench import LakeSpec, generate_ecommerce_lake
from ..bench.runner import build_hybrid_system
from .export import render_trace
from .tracer import Tracer, span

# Spans a traced hybrid suite must produce somewhere (union over all
# queries — not every query takes every path, e.g. pure-SQL answers
# skip retrieval).
REQUIRED_SPANS = (
    "qa.answer", "qa.route", "qa.tableqa", "qa.textqa", "qa.cross_check",
    "retrieval.topology", "sql.execute", "sql.plan", "sql.exec",
    "graph.bfs", "slm.tag",
)

# Disabled-tracing overhead budget, as a fraction of per-query time.
OVERHEAD_BUDGET = 0.03
_NULL_CALLS = 200_000


def _null_span_seconds() -> float:
    """Mean cost of one disabled ``span()`` call (no tracer installed)."""
    started = time.perf_counter()
    for _ in range(_NULL_CALLS):
        with span("smoke.noop"):
            pass
    return (time.perf_counter() - started) / _NULL_CALLS


def run_smoke(verbose: bool = False) -> List[str]:
    """Run every check; returns a list of failure messages (empty = ok)."""
    failures: List[str] = []
    lake = generate_ecommerce_lake(LakeSpec(n_products=8, seed=13))
    pairs = lake.qa_pairs(per_kind=1)

    # Untraced pass: reference answers + per-query wall time.
    system, _pipeline = build_hybrid_system(lake, seed=13)
    for pair in pairs:  # warmup
        system.answer(pair.question)
    started = time.perf_counter()
    reference = [system.answer(p.question).fingerprint() for p in pairs]
    per_query = (time.perf_counter() - started) / len(pairs)

    # Traced pass on an identical fresh system.
    traced_system, traced_pipeline = build_hybrid_system(lake, seed=13)
    for pair in pairs:  # identical warmup, untraced
        traced_system.answer(pair.question)
    tracer = Tracer(meter=traced_system.meter)
    before = traced_system.meter.snapshot()
    with tracer.activate():
        traced = [
            traced_system.answer(p.question).fingerprint() for p in pairs
        ]
    global_cost = traced_system.meter.diff(before)

    if traced != reference:
        diverged = [
            p.question for p, a, b in zip(pairs, reference, traced)
            if a != b
        ]
        failures.append(
            "tracing changed answers for: %s" % "; ".join(diverged)
        )

    names = {node.name for node in tracer.spans()}
    for required in REQUIRED_SPANS:
        if required not in names:
            failures.append("missing required stage span %r" % required)

    recorded = {}
    for root in tracer.roots:
        for name, amount in root.cost.items():
            recorded[name] = recorded.get(name, 0) + amount
    if recorded != {k: v for k, v in global_cost.items() if v}:
        failures.append(
            "root span costs %r do not reconcile with meter diff %r"
            % (recorded, global_cost)
        )

    spans_per_query = sum(1 for _ in tracer.spans()) / len(pairs)
    overhead = _null_span_seconds() * spans_per_query / per_query
    if overhead >= OVERHEAD_BUDGET:
        failures.append(
            "disabled-tracing overhead %.4f%% exceeds budget %.1f%%"
            % (overhead * 100.0, OVERHEAD_BUDGET * 100.0)
        )

    if verbose:
        print(render_trace(tracer))
        print()
        print("queries: %d  spans/query: %.1f  per-query: %.1f ms  "
              "disabled overhead: %.4f%%" % (
                  len(pairs), spans_per_query, per_query * 1000.0,
                  overhead * 100.0,
              ))
    return failures


def main() -> int:
    """CLI entry point: print the verdict, return the exit code."""
    failures = run_smoke(verbose=True)
    if failures:
        for failure in failures:
            print("FAIL: %s" % failure)
        return 1
    print("observability smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
