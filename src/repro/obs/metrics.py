"""Process-wide metrics: named counters and streaming histograms.

The registry complements tracing: spans answer "where did *this* query
spend its budget", metrics answer "what is the system doing over time"
(answer latency distribution, fusion candidate pools, rows scanned).
Everything is plain Python — a counter increment is one dict lookup and
an integer add, cheap enough to record unconditionally.

Canonical metric names used across the library:

* ``qa.answer.count`` / ``qa.answer.latency`` / ``qa.answer.work`` —
  pipeline answers (wall seconds and CostMeter work units);
* ``retrieval.fusion.candidates`` — RRF merged pool size per query;
* ``sql.statements`` / ``sql.rows_scanned`` — relational engine work.
"""

from __future__ import annotations

import json
import math
from collections import deque
from typing import Any, Deque, Dict, Optional, Sequence, Tuple

#: Per-answer wall latency in seconds (machine-dependent; useful for
#: live dashboards, never for reproducible comparisons).
METRIC_ANSWER_LATENCY = "qa.answer.latency"
#: Per-answer cost in CostMeter work units — the machine-independent
#: latency reading, on the same clock as resilience budgets/backoff.
METRIC_ANSWER_WORK = "qa.answer.work"
#: A plan with isolated arms produced a non-abstained answer.
METRIC_SPECULATION_WIN = "speculation.arm.win"
#: An isolated arm was cancelled: an earlier arm had answered before
#: it started, or its rescue reserve cut the faulting arm off mid-run.
METRIC_SPECULATION_CANCELLED = "speculation.arm.cancelled"
#: A plan with isolated arms answered although at least one arm failed
#: fatally — the surviving arm rescued the question.
METRIC_SPECULATION_RESCUED = "speculation.rescued"
#: Histogram of CostMeter work units each cancelled arm had consumed
#: when it was cancelled (0 for arms that never started).
METRIC_SPECULATION_CANCELLED_WORK = "speculation.cancelled_work"

# Bound the per-histogram sample reservoir so long-running processes
# keep constant memory; quantiles are over the most recent window.
_RESERVOIR = 1024


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


class Counter:
    """A named monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (must be non-negative)."""
        if amount < 0:
            raise ValueError("counter increments must be non-negative")
        self.value += amount


class Histogram:
    """Streaming summary of observed values.

    Keeps exact count/sum/min/max plus a reservoir of the most recent
    observations for quantile estimates. The reservoir is bounded by
    default (constant memory for long-running processes); pass
    ``reservoir=0`` to keep *every* observation, which makes
    :meth:`quantile` exact over the full sample — the mode the load
    harness uses for SLO percentile gates.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_recent")

    def __init__(self, name: str, reservoir: Optional[int] = _RESERVOIR):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._recent: Deque[float] = deque(
            maxlen=reservoir if reservoir else None
        )

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self._recent.append(value)

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Nearest-rank quantile over the observation window.

        Exact over every observation when the histogram was built with
        ``reservoir=0``; otherwise over the most recent window. None
        before any observation.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if not self._recent:
            return None
        return nearest_rank(self._recent, q)

    def values(self) -> Tuple[float, ...]:
        """The retained observations, in arrival order."""
        return tuple(self._recent)

    def summary(self) -> Dict[str, Any]:
        """count/mean/min/max/p50/p95/p99 as a plain dict."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """A named bag of counters and histograms.

    >>> registry = MetricsRegistry()
    >>> registry.counter("sql.statements").inc()
    >>> registry.histogram("qa.answer.latency").observe(0.25)
    >>> registry.snapshot()["counters"]["sql.statements"]
    1
    """

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter named *name*, created on first use."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def histogram(self, name: str,
                  reservoir: Optional[int] = _RESERVOIR) -> Histogram:
        """The histogram named *name*, created on first use.

        *reservoir* applies only at creation time (``0`` = keep every
        observation, for exact full-sample percentiles); a histogram
        that already exists keeps its original window.
        """
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(
                name, reservoir=reservoir
            )
        return histogram

    def snapshot(self) -> Dict[str, Any]:
        """All metric values as one JSON-ready dict."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "histograms": {
                name: h.summary()
                for name, h in sorted(self._histograms.items())
            },
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize :meth:`snapshot` as JSON text."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def render(self) -> str:
        """Fixed-width text rendering (for CLI and reports)."""
        lines = []
        if self._counters:
            lines.append("counters:")
            width = max(len(n) for n in self._counters)
            for name in sorted(self._counters):
                lines.append("  %-*s %d" % (
                    width, name, self._counters[name].value
                ))
        if self._histograms:
            lines.append("histograms:")
            width = max(len(n) for n in self._histograms)
            for name in sorted(self._histograms):
                s = self._histograms[name].summary()
                lines.append(
                    "  %-*s count=%d mean=%.6g min=%.6g max=%.6g" % (
                        width, name, s["count"], s["mean"],
                        s["min"] or 0.0, s["max"] or 0.0,
                    )
                )
        return "\n".join(lines) if lines else "(no metrics recorded)"

    def reset(self) -> None:
        """Drop every counter and histogram."""
        self._counters.clear()
        self._histograms.clear()


REGISTRY = MetricsRegistry()
"""Process-wide default registry used by the helpers below."""


def incr(name: str, amount: int = 1) -> None:
    """Increment a counter in the process-wide registry."""
    REGISTRY.counter(name).inc(amount)


def observe(name: str, value: float) -> None:
    """Record a histogram observation in the process-wide registry."""
    REGISTRY.histogram(name).observe(value)
