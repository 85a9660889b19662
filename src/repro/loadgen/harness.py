"""The closed-loop load harness: spec -> traffic -> measurements -> SLO.

:func:`run_load` closes the loop the ROADMAP asks for: it builds the
stack a :class:`~.spec.LoadSpec` describes (through
:func:`~repro.bench.runner.build_stack`), expands the spec into seeded
arrival bursts, drives the full
:class:`~repro.serving.QueryServer` stack (caches, micro-batches,
admission, optional chaos), collects per-request **work-clock**
latency samples plus error/abstention/shed counts and cache-tier hit
rates, and evaluates the result against a declarative
:class:`~.slo.SLOSpec`. Every measured number is deterministic — two
runs of the same spec produce byte-identical reports — so an SLO
breach in CI is a real regression, never flake.

Arrival think-time is charged to the pipeline's CostMeter between
bursts (counter ``loadgen.think_work``): the arrival schedule lives on
the same work clock as resilience budgets and cache costs, advancing
deterministically instead of sleeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..bench.runner import build_stack
from ..resilience import work_now
from ..serving import QueryServer, ServeRequest, ServeResult
from .slo import SLOReport, SLOSpec, evaluate
from .spec import LoadSpec, generate_workload

#: CostMeter counter charged for inter-burst think time.
THINK_WORK = "loadgen.think_work"

#: Tiers whose hit rates the harness reports (when enabled).
_RATED_TIERS = ("answer", "plan", "retrieval")


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Exact nearest-rank quantile of *values* (q in [0, 1]).

    The smallest element whose cumulative frequency is >= q: rank
    ``max(1, ceil(q * n))`` in the sorted sample. Unlike interpolating
    estimators this always returns an *observed* value, so percentile
    gates computed from integer work-unit samples stay integers and
    compare deterministically.

    >>> nearest_rank([10, 20, 30, 40], 0.5)
    20
    >>> nearest_rank([7], 0.99)
    7

    Raises :class:`ValueError` on an empty sample or q outside [0, 1]
    — SLO math must fail loudly, never silently default.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1], got %r" % (q,))
    ordered = sorted(values)
    if not ordered:
        raise ValueError("nearest_rank() of an empty sample")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


@dataclass
class LoadReport:
    """Everything one load run produced.

    ``measurements`` is the flat, JSON-ready metric dict SLO gates
    read; ``verdict`` is None when no SLO spec was supplied.
    """

    spec: LoadSpec
    slo: Optional[SLOSpec]
    measurements: Dict[str, Any]
    verdict: Optional[SLOReport]
    questions: Tuple[str, ...]

    @property
    def passed(self) -> bool:
        """True when there is no verdict or every gate passed."""
        return self.verdict is None or self.verdict.passed


def _tier_lookups(server: QueryServer) -> Dict[str, Tuple[int, int]]:
    """Per-tier (hits, misses) right now — for delta hit rates."""
    stats = server.stats()["cache"]
    return {
        tier: (stats[tier]["hits"], stats[tier]["misses"])
        for tier in _RATED_TIERS if tier in stats
    }


def _hit_rates(before: Dict[str, Tuple[int, int]],
               after: Dict[str, Tuple[int, int]]) -> Dict[str, float]:
    """Hit rate per tier over the lookups between two snapshots."""
    rates: Dict[str, float] = {}
    for tier in _RATED_TIERS:
        if tier not in after:
            rates["%s_hit_rate" % tier] = 0.0
            continue
        hits = after[tier][0] - before.get(tier, (0, 0))[0]
        misses = after[tier][1] - before.get(tier, (0, 0))[1]
        total = hits + misses
        rates["%s_hit_rate" % tier] = (
            round(hits / total, 6) if total else 0.0
        )
    return rates


def _warmup_requests(spec: LoadSpec,
                     questions: Tuple[str, ...]) -> List[ServeRequest]:
    """One ask per pool question, on a dedicated warmup session.

    Warmup traffic primes the cache tiers without touching the measured
    sessions' budgets, so admission isolation results stay clean.
    """
    return [
        ServeRequest(op="ask", payload={"question": question},
                     session="warmup")
        for question in questions
    ] * spec.warmup_passes


def _measure(results: List[ServeResult], total_work: int, warmup_work: int,
             think_charged: int, n_batches: int,
             rates: Dict[str, float]) -> Dict[str, Any]:
    """Fold serve results into the flat measurement dict gates read."""
    asks = [r for r in results if r.op == "ask"]
    writes = [r for r in results if r.op != "ask"]
    served = [r for r in asks if not r.shed]
    n_shed = len(asks) - len(served)
    n_deduped = sum(1 for r in served if r.deduped)
    n_errors = sum(
        1 for r in served
        if r.answer is not None and r.answer.metadata.get("degraded")
    )
    n_abstained = sum(
        1 for r in asks if r.answer is not None and r.answer.abstained
    )
    works = [r.work for r in served]
    n_asks = len(asks)
    measurements: Dict[str, Any] = {
        "asks": n_asks,
        "writes": len(writes),
        "batches": n_batches,
        "served": len(served),
        "shed": n_shed,
        "deduped": n_deduped,
        "errors": n_errors,
        "abstained": n_abstained,
        "total_work": total_work,
        "warmup_work": warmup_work,
        "think_work": think_charged,
        "error_rate": round(n_errors / n_asks, 6) if n_asks else 0.0,
        "abstain_rate": round(n_abstained / n_asks, 6) if n_asks else 0.0,
        "shed_rate": round(n_shed / n_asks, 6) if n_asks else 0.0,
        "dedup_rate": round(n_deduped / n_asks, 6) if n_asks else 0.0,
    }
    measurements.update(rates)
    if served:
        measurements.update({
            "work_p50": nearest_rank(works, 0.50),
            "work_p95": nearest_rank(works, 0.95),
            "work_p99": nearest_rank(works, 0.99),
            "work_max": max(works),
            "work_mean": round(sum(works) / len(works), 2),
        })
    measurements.update(_tenant_measurements(asks))
    return measurements


def _tenant_measurements(asks: List[ServeResult]) -> Dict[str, Any]:
    """Per-tenant slices, flattened as ``tenant.<id>.<metric>``.

    Only emitted for multi-tenant runs (more than one tenant observed),
    so untenanted reports stay byte-identical to before.
    """
    tenants = sorted({r.tenant for r in asks})
    if len(tenants) < 2:
        return {}
    out: Dict[str, Any] = {}
    for tenant in tenants:
        mine = [r for r in asks if r.tenant == tenant]
        served = [r for r in mine if not r.shed]
        n_shed = len(mine) - len(served)
        n_abstained = sum(
            1 for r in mine
            if r.answer is not None and r.answer.abstained
        )
        works = [r.work for r in served]
        prefix = "tenant.%s." % tenant
        out[prefix + "asks"] = len(mine)
        out[prefix + "served"] = len(served)
        out[prefix + "shed"] = n_shed
        out[prefix + "shed_rate"] = (
            round(n_shed / len(mine), 6) if mine else 0.0)
        out[prefix + "abstain_rate"] = (
            round(n_abstained / len(mine), 6) if mine else 0.0)
        if served:
            out[prefix + "work_p50"] = nearest_rank(works, 0.50)
            out[prefix + "work_p95"] = nearest_rank(works, 0.95)
            out[prefix + "total_work"] = sum(works)
    return out


def run_load(spec: LoadSpec,
             slo: Optional[SLOSpec] = None) -> LoadReport:
    """Run one spec end to end and (optionally) gate it on an SLO.

    Deterministic by construction: the lake, the pipeline, the
    workload and every measured number derive from the spec's seed and
    the work clock — wall time never appears in the measurements.
    """
    lake, _pipeline, server = build_stack(spec.stack)
    pairs = lake.qa_pairs(per_kind=spec.questions_per_kind)
    questions = tuple(pair.question for pair in pairs)
    bursts = generate_workload(spec, questions)
    meter = server.pipeline.meter

    warmup_before = work_now(meter)
    warmup = _warmup_requests(spec, questions)
    if warmup:
        server.serve(warmup)
    warmup_work = work_now(meter) - warmup_before

    lookups_before = _tier_lookups(server)
    batches_before = server.stats()["scheduler"]["batches"]
    measured_before = work_now(meter)
    think_charged = 0
    results: List[ServeResult] = []
    for burst in bursts:
        if burst.gap:
            meter.charge(THINK_WORK, burst.gap)
            think_charged += burst.gap
        results.extend(server.serve(list(burst.requests)))
    total_work = work_now(meter) - measured_before
    n_batches = server.stats()["scheduler"]["batches"] - batches_before

    measurements = _measure(
        results, total_work, warmup_work, think_charged,
        n_batches, _hit_rates(lookups_before, _tier_lookups(server)),
    )
    verdict = evaluate(measurements, slo)
    return LoadReport(spec=spec, slo=slo, measurements=measurements,
                      verdict=verdict, questions=questions)
