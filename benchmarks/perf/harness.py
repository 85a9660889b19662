"""Rounds, timing, scoring and aggregation for one workload run.

A run is :data:`workloads.ROUNDS` untraced rounds, plus one traced round
when asked. Every round builds fresh stacks for both domains (that
build is the round's set-up sample), warms up, and replays the same
seeded stream from one closed-loop client. The stream being identical in
every round is what the estimators lean on:

* every count (asks, failures, work units, hits, dedups) must repeat
  exactly from round to round, or the run is reported incorrect;
* timed call *i* is the same work in every round, so it has one sample
  per round. Each sample is its wall time divided by the machine
  slowdown the reference kernel (:mod:`gauge`) saw around it; the call's
  duration is the median of its samples. Percentiles and throughput are
  taken over those per-call durations.

The uncorrected numbers — per-call best of rounds, best and median
round — are computed from the same samples and reported beside them.
"""

from __future__ import annotations

import gc
import math
import resource
import time
from statistics import median
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.runner import build_hybrid_system
from repro.serving import QueryServer

import workloads
from gauge import Gauge
from workloads import Call, Stream

E2E_UNITS = {
    "setup_s": "s",
    "asks_per_s": "1/s",
    "ask_p50_ms": "ms",
    "ask_p95_ms": "ms",
    "ingest_p50_ms": "ms",
    "failed_share": "share",
    "peak_rss_mb": "MB",
}

#: Stream seconds between two gauge readings. A reading costs ~2 ms, so
#: gauging takes under a tenth of the run; calls longer than this get a
#: reading right before and right after them.
GAUGE_EVERY_S = 0.025

#: Count names that must repeat exactly in every round.
SERVING_COUNTS = (
    "answer_hits", "answer_misses", "answer_evictions",
    "answer_invalidations", "plan_hits", "plan_misses",
    "retrieval_hits", "retrieval_misses", "batches", "deduped", "shed",
)


class Stack:
    """One domain's built system: lake, pipeline, optional server."""

    def __init__(self, lake: Any, seed: int, serving: bool):
        self.lake = lake
        _system, self.pipeline = build_hybrid_system(lake, seed=seed)
        # A server wires its cache tiers into the pipeline, which
        # direct ``answer`` callers do not have: ask_* builds none.
        self.server = QueryServer(self.pipeline) if serving else None

    def serving_counts(self) -> Dict[str, int]:
        if self.server is None:
            return dict.fromkeys(SERVING_COUNTS, 0)
        stats = self.server.stats()
        cache, scheduler = stats["cache"], stats["scheduler"]
        out = {}
        for tier in ("answer", "plan", "retrieval"):
            for field in ("hits", "misses"):
                out["%s_%s" % (tier, field)] = cache[tier][field]
        out["answer_evictions"] = cache["answer"]["evictions"]
        out["answer_invalidations"] = cache["answer"]["invalidations"]
        for field in ("batches", "deduped", "shed"):
            out[field] = scheduler[field]
        return out


# ----------------------------------------------------------------------
# Scoring
# ----------------------------------------------------------------------
class Scorer:
    """Counts failed operations against gold, outside the timed region.

    An operation fails when it raised, was shed, abstained, came back
    degraded, failed to write, or scored wrong against its gold.
    Verdicts are memoised on the answer's content: ``serve_hot`` scores
    hundreds of thousands of identical cached answers.
    """

    def __init__(self):
        self._verdicts: Dict[Any, bool] = {}

    def _answer_failed(self, gold: Any, answer: Any) -> bool:
        if answer is None:
            return True
        key = (id(gold), answer.text, repr(answer.value), answer.abstained,
               bool(answer.metadata.get("degraded")))
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = bool(key[3] or key[4] or not gold.is_correct(answer))
            self._verdicts[key] = verdict
        return verdict

    def failed(self, call: Call, outcome: Any, serving: bool) -> int:
        """Failed operations among those *call* attempted."""
        if outcome is None:             # the call raised
            return max(1, call.asks)
        if not serving:
            return int(self._answer_failed(call.golds[0], outcome))
        if call.kind != "ask":
            return int(len(outcome) != 1
                       or not outcome[0].detail.startswith("ok"))
        if len(outcome) != call.asks:
            return call.asks
        return sum(
            1 for gold, result in zip(call.golds, outcome)
            if result.shed or self._answer_failed(gold, result.answer)
        )


# ----------------------------------------------------------------------
# One round
# ----------------------------------------------------------------------
class RoundResult:
    """What one round measured.

    ``readings`` are ``(call index, seconds per reference unit)`` pairs
    taken between calls, the first before call 0 and the last after the
    final call; ``setup_parts`` are ``(seconds, reading before, reading
    after)`` per built stack.
    """

    def __init__(self, setup_parts: List[Tuple[float, float, float]],
                 durations: List[float],
                 readings: List[Tuple[int, float]],
                 failed: int, counts: Dict[str, int]):
        self.setup_parts = setup_parts
        self.durations = durations
        self.readings = readings
        self.failed = failed
        self.counts = counts

    @property
    def setup_s(self) -> float:
        return sum(part[0] for part in self.setup_parts)

    @property
    def stream_s(self) -> float:
        return sum(self.durations)

    def slowdowns(self, floor: float) -> List[float]:
        """Machine slowdown in force around each timed call."""
        out: List[float] = []
        for (start, before), (end, after) in zip(self.readings,
                                                 self.readings[1:]):
            out.extend([(before + after) / 2.0 / floor] * (end - start))
        return out

    def corrected(self, floor: float) -> List[float]:
        """Each call's wall time at the machine's unloaded speed."""
        return [d / s for d, s in zip(self.durations, self.slowdowns(floor))]

    def corrected_setup_s(self, floor: float) -> float:
        return sum(seconds / ((before + after) / 2.0 / floor)
                   for seconds, before, after in self.setup_parts)


def _sum_counts(stacks: Sequence[Stack]) -> Dict[str, int]:
    total = {"work": 0, "rows_scanned": 0}
    total.update(dict.fromkeys(SERVING_COUNTS, 0))
    for stack in stacks:
        meter = stack.pipeline.meter.snapshot()
        # The CostMeter work clock is the sum of every counter.
        total["work"] += sum(meter.values())
        total["rows_scanned"] += meter.get("rows_scanned", 0)
        for name, value in stack.serving_counts().items():
            total[name] += value
    return total


def play_round(stream: Stream, scorer: Scorer, gauge: Gauge,
               tracer: Optional[Any] = None) -> RoundResult:
    """Set up, warm up and play *stream* once.

    *tracer* (``probes.Tracer``) is given for the traced round only; it
    brackets set-up, warm-up and every timed call with a root span.
    Gauge readings are taken outside every root span.
    """
    serving = stream.serving
    clock = time.perf_counter
    stacks: List[Stack] = []
    setup_parts = []
    before = gauge.read()
    for domain in range(len(workloads.DOMAINS)):
        if tracer is not None:
            tracer.begin("setup", -1)
        started = clock()
        # Lake generation is part of set-up (a few ms per lake).
        stacks.append(Stack(workloads.make_lake(domain, stream.seed),
                            stream.seed, serving))
        spent = clock() - started
        if tracer is not None:
            tracer.end()
        after = gauge.read()
        setup_parts.append((spent, before, after))
        before = after
    if serving:
        targets: List[Callable[[Any], Any]] = [s.server.serve for s in stacks]
    else:
        targets = [s.pipeline.answer for s in stacks]

    def argument(call: Call) -> Any:
        return list(call.requests) if serving else call.questions[0]

    if tracer is not None:
        tracer.begin("warmup", -2)
    for call in stream.warmup:
        targets[call.domain](argument(call))
    if tracer is not None:
        tracer.end()

    arguments = [argument(call) for call in stream.calls]
    gc.collect()
    counts_before = _sum_counts(stacks)
    durations: List[float] = []
    readings = [(0, gauge.read())]
    since_reading = 0.0
    failed = 0
    for index, call in enumerate(stream.calls):
        target = targets[call.domain]
        arg = arguments[index]
        if tracer is not None:
            tracer.begin(call.kind, index)
        start = clock()
        try:
            outcome = target(arg)
        except Exception:   # noqa: BLE001 - an op that raises is a failed op
            outcome = None
        spent = clock() - start
        if tracer is not None:
            tracer.end()
        durations.append(spent)
        since_reading += spent
        if since_reading >= GAUGE_EVERY_S:
            readings.append((index + 1, gauge.read()))
            since_reading = 0.0
        failed += scorer.failed(call, outcome, serving)
    if readings[-1][0] != len(stream.calls):
        readings.append((len(stream.calls), gauge.read()))
    counts_after = _sum_counts(stacks)
    counts = {name: counts_after[name] - counts_before[name]
              for name in counts_after}
    counts["asks"] = stream.asks
    counts["writes"] = sum(1 for c in stream.calls if c.kind != "ask")
    counts["failed"] = failed
    return RoundResult(setup_parts, durations, readings, failed, counts)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (always an observed value)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def smoothed_percentile(values: Sequence[float], q: float,
                        half_width: float = 0.025) -> float:
    """Mean of the order statistics ranked within *half_width* of *q*.

    A nearest-rank p95 of a tail that is a sparse mixture (serve_churn:
    0, 1, 2 ... text questions recomputed in one burst) jumps between
    its modes when timing noise reorders two neighbours.
    """
    ordered = sorted(values)
    low = max(1, math.ceil((q - half_width) * len(ordered)))
    high = max(low, math.ceil((q + half_width) * len(ordered)))
    window = ordered[low - 1:high]
    return sum(window) / len(window)


def _timing(stream: Stream, durations: Sequence[float]) -> Dict[str, Any]:
    """Timing metrics of one duration-per-call vector."""
    ask = [d for d, c in zip(durations, stream.calls) if c.kind == "ask"]
    ingest = [d for d, c in zip(durations, stream.calls)
              if c.kind == "add_text"]
    return {
        "asks_per_s": stream.asks / sum(durations),
        "ask_p50_ms": percentile(ask, 0.50) * 1e3,
        "ask_p95_ms": smoothed_percentile(ask, 0.95) * 1e3,
        "ingest_p50_ms": median(ingest) * 1e3 if ingest else None,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summarize(stream: Stream, rounds: Sequence[RoundResult],
              gauge: Gauge, rss_mb: float) -> Dict[str, Any]:
    """End-to-end metrics and the per-round record of a finished run.

    Call it once every round that read *gauge* is over (its floor is the
    fastest unit of the whole run); *rss_mb* is the high-water mark
    taken right after the untraced rounds.
    """
    floor = gauge.floor
    samples = list(zip(*(r.corrected(floor) for r in rounds)))
    call_durations = [median(s) for s in samples]
    metrics = _timing(stream, call_durations)
    attempted = len(rounds) * (stream.asks + rounds[0].counts["writes"])
    failed = sum(r.failed for r in rounds)
    metrics["setup_s"] = median([r.corrected_setup_s(floor) for r in rounds])
    metrics["failed_share"] = failed / attempted
    metrics["peak_rss_mb"] = rss_mb
    counts_repeat = all(r.counts == rounds[0].counts for r in rounds)

    # The same samples without the correction: each call's best round,
    # and whole rounds.
    uncorrected = _timing(stream, [min(s) for s in
                                   zip(*(r.durations for r in rounds))])
    uncorrected["setup_s"] = median([r.setup_s for r in rounds])
    per_round = [_timing(stream, r.durations) for r in rounds]
    by_round = {}
    for name in ("asks_per_s", "ask_p50_ms", "ask_p95_ms"):
        values = [p[name] for p in per_round]
        pick = max if name == "asks_per_s" else min
        by_round[name] = {
            "best_round": pick(values),
            "median_round": median(values),
            "round_spread": (max(values) - min(values)) / median(values),
        }
    ask_calls = sum(1 for c in stream.calls if c.kind == "ask")
    return {
        "end_to_end": metrics,
        "uncorrected": uncorrected,
        "attempted": attempted,
        "failed": failed,
        "counts_repeat": counts_repeat,
        "correct": failed == 0 and counts_repeat,
        "counts": rounds[0].counts,
        "machine": {
            "unit_floor_us": floor * 1e6,
            "gauge_units": gauge.units,
            "slowdown_by_round": [
                median(r.slowdowns(floor)) for r in rounds],
        },
        "rounds": {
            "n": len(rounds),
            "setup_s": [r.setup_s for r in rounds],
            "stream_s": [r.stream_s for r in rounds],
            "counts": [r.counts for r in rounds],
            "timing": per_round,
            "summary": by_round,
        },
        "samples": {
            "timed_calls_per_round": len(stream.calls),
            "ask_calls_per_round": ask_calls,
            "asks_per_round": stream.asks,
            "writes_per_round": rounds[0].counts["writes"],
            "samples_per_call": len(rounds),
            "beyond_p95": ask_calls - math.ceil(0.95 * ask_calls),
        },
        "call_durations": call_durations,
    }


def run_untraced(stream: Stream, rounds: int,
                 gauge: Gauge) -> List[RoundResult]:
    """The untraced rounds; stacks of a finished round are dropped
    before the next is built, so peak memory is one round's."""
    scorer = Scorer()
    results = []
    for _ in range(rounds):
        results.append(play_round(stream, scorer, gauge))
        gc.collect()
    return results
