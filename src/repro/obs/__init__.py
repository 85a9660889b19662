"""Structured tracing for the hybrid QA pipeline.

Zero-dependency observability: :class:`Tracer` + :func:`span` produce
per-query trace trees with wall time and :class:`~repro.metering.CostMeter`
deltas per stage; exporters render them as JSON or aligned text. Counts
that outlive one query live in the ``stats()`` documents of the objects
that keep them (``QueryServer.stats()``, ``ShardStats``). See
``docs/observability.md`` for the span taxonomy.
"""

from .export import aggregate_stages, render_trace, trace_to_json
from .tracer import Span, Tracer, active_tracer, install, span

__all__ = [
    "Span", "Tracer", "active_tracer", "install", "span",
    "aggregate_stages", "render_trace", "trace_to_json",
]
