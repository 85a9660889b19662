"""Per-layer metrics: their catalogue and how the traced round fills it.

Layers are the program's package names. ``README.md`` holds the table of
which end-to-end metric each of these should move on which workload.
Every metric is reported on every workload; one that does not apply
(write metrics on a read-only workload, serving metrics on ``ask_*``)
reads 0.
"""

from __future__ import annotations

from statistics import median
from typing import Any, Dict, List, Sequence, Tuple

from workloads import Stream

_SELF_LAYERS = ("text", "slm", "retrieval", "semql", "storage.relational",
                "storage.document", "storage.textstore", "qa", "resilience",
                "tenancy")
_CALL_LAYERS = ("text", "slm", "retrieval", "storage.relational",
                "storage.document", "storage.textstore", "resilience",
                "tenancy")

#: metric -> span whose mean inclusive time over the timed stream it is.
_PER_CALL = {
    "slm.generate_ms_per_call": "generate",
    "slm.tag_ms_per_call": "tag_entities",
    "retrieval.retrieve_ms_per_call": "retrieve",
    "semql.synthesize_ms_per_call": "synthesize",
    "semql.compile_ms_per_call": "to_sql",
    "storage.relational.execute_ms_per_call": "db.execute",
    "qa.route_ms_per_call": "route",
    "qa.tableqa_ms_per_call": "tableqa.answer",
    "qa.textqa_ms_per_call": "textqa.answer",
    "qa.ingest_ms_per_call": "pipeline.ingest_incremental",
}


def _catalogue() -> Tuple[Tuple[str, str, str], ...]:
    rows: List[Tuple[str, str, str]] = []
    for layer in _SELF_LAYERS:
        rows.append(("%s.self_ms_per_ask" % layer, "ms", "lower"))
    for layer in _CALL_LAYERS:
        rows.append(("%s.calls_per_ask" % layer, "count", "lower"))
    rows += [(name, "ms", "lower") for name in _PER_CALL]
    rows += [
        ("text.stem_calls_per_ask", "count", "lower"),
        ("text.stem_ms_per_ask", "ms", "lower"),
        ("text.stem_time_share", "share", "lower"),
        ("graphindex.build_ms", "ms", "lower"),
        ("graphindex.bfs_ms_per_ask", "ms", "lower"),
        ("graphindex.ingest_ms_per_write", "ms", "lower"),
        ("extraction.generate_ms", "ms", "lower"),
        ("extraction.ingest_ms_per_write", "ms", "lower"),
        ("qa.build_ms", "ms", "lower"),
        ("storage.relational.rows_scanned_per_ask", "count", "lower"),
        ("serving.self_us_per_ask", "us", "lower"),
        ("serving.answer_hit_rate", "share", "higher"),
        ("serving.plan_hit_rate", "share", "higher"),
        ("serving.retrieval_hit_rate", "share", "higher"),
        ("serving.dedup_share", "share", "higher"),
        ("serving.batches", "count", "lower"),
        ("serving.invalidations_per_write", "count", "lower"),
        ("serving.evictions", "count", "lower"),
        ("serving.sql_write_us", "us", "lower"),
        ("serving.add_doc_write_us", "us", "lower"),
        ("meter.work_per_ask", "count", "lower"),
        ("meter.ns_per_work_unit", "ns", "lower"),
        ("trace.overhead_share", "share", "lower"),
        ("trace.coverage_share", "share", "higher"),
        ("trace.probe_missing", "count", "lower"),
    ]
    return tuple(rows)


#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = _catalogue()


def _rate(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def count_metrics(stream: Stream, summary: Dict[str, Any]) -> Dict[str, float]:
    """The per-layer metrics that come from counts and untraced timings."""
    counts = summary["counts"]
    durations = summary["call_durations"]
    asks = stream.asks

    def write_us(kind: str) -> float:
        values = [d for d, c in zip(durations, stream.calls)
                  if c.kind == kind]
        return median(values) * 1e6 if values else 0.0

    return {
        "storage.relational.rows_scanned_per_ask":
            counts["rows_scanned"] / asks,
        "serving.answer_hit_rate": _rate(counts["answer_hits"],
                                         counts["answer_misses"]),
        "serving.plan_hit_rate": _rate(counts["plan_hits"],
                                       counts["plan_misses"]),
        "serving.retrieval_hit_rate": _rate(counts["retrieval_hits"],
                                            counts["retrieval_misses"]),
        "serving.dedup_share": counts["deduped"] / asks,
        "serving.batches": float(counts["batches"]),
        "serving.invalidations_per_write": _ratio(
            counts["answer_invalidations"], counts["writes"]),
        "serving.evictions": float(counts["answer_evictions"]),
        "serving.sql_write_us": write_us("sql"),
        "serving.add_doc_write_us": write_us("add_doc"),
        "meter.work_per_ask": counts["work"] / asks,
        "meter.ns_per_work_unit": _ratio(sum(durations) * 1e9,
                                         counts["work"]),
    }


def trace_metrics(stream: Stream, tracer: Any, traced: Any,
                  untraced: Sequence[Any], floor: float) -> Dict[str, float]:
    """The per-layer metrics that come from the traced round's spans.

    Span times get the same correction as the end-to-end numbers: each
    is divided by the machine slowdown around its timed call (set-up and
    warm-up spans by the slowdown at set-up).
    """
    from probes import PROBES, ROOT

    slowdown = traced.slowdowns(floor)
    setup_slowdown = traced.setup_s / traced.corrected_setup_s(floor)

    def bucket_of(request: int) -> str:
        if request < 0:
            return "setup" if request == -1 else "warmup"
        return stream.calls[request].kind

    layer_self: Dict[Tuple[str, str], float] = {}
    layer_calls: Dict[Tuple[str, str], int] = {}
    span_incl: Dict[Tuple[str, str], float] = {}
    span_calls: Dict[Tuple[str, str], int] = {}
    root_time: Dict[str, float] = {}
    root_wall: Dict[str, float] = {}
    setup_top_qa = 0.0
    spans = tracer.spans
    for span in spans:
        probe, start, end, parent, request, self_s = span
        bucket = bucket_of(request)
        factor = slowdown[request] if request >= 0 else setup_slowdown
        duration = (end - start) / factor
        self_s /= factor
        if probe == ROOT:
            root_time[bucket] = root_time.get(bucket, 0.0) + duration
            root_wall[bucket] = root_wall.get(bucket, 0.0) + end - start
            continue
        layer, name = PROBES[probe][0], PROBES[probe][1]
        key = (layer, bucket)
        layer_self[key] = layer_self.get(key, 0.0) + self_s
        layer_calls[key] = layer_calls.get(key, 0) + 1
        key = (name, bucket)
        span_incl[key] = span_incl.get(key, 0.0) + duration
        span_calls[key] = span_calls.get(key, 0) + 1
        if (bucket == "setup" and layer == "qa"
                and spans[parent][0] == ROOT):
            setup_top_qa += duration
    for (probe, bucket), (calls, busy, self_s) in tracer.leaves.items():
        # Leaves keep no per-call record: correct them by the mean
        # slowdown of their kind of call.
        factor = _ratio(root_wall.get(bucket, 0.0),
                        root_time.get(bucket, 0.0)) or 1.0
        busy, self_s = busy / factor, self_s / factor
        layer, name = PROBES[probe][0], PROBES[probe][1]
        key = (layer, bucket)
        layer_self[key] = layer_self.get(key, 0.0) + self_s
        layer_calls[key] = layer_calls.get(key, 0) + calls
        key = (name, bucket)
        span_incl[key] = span_incl.get(key, 0.0) + busy
        span_calls[key] = span_calls.get(key, 0) + calls

    asks = stream.asks
    stream_buckets = ("ask", "sql", "add_doc", "add_text")
    ingests = sum(1 for c in stream.calls if c.kind == "add_text")
    out: Dict[str, float] = {}
    for layer in _SELF_LAYERS:
        out["%s.self_ms_per_ask" % layer] = (
            layer_self.get((layer, "ask"), 0.0) * 1e3 / asks)
    for layer in _CALL_LAYERS:
        out["%s.calls_per_ask" % layer] = (
            layer_calls.get((layer, "ask"), 0) / asks)
    for metric, name in _PER_CALL.items():
        out[metric] = _ratio(
            sum(span_incl.get((name, b), 0.0) for b in stream_buckets) * 1e3,
            sum(span_calls.get((name, b), 0) for b in stream_buckets))
    stem_s = span_incl.get(("stem", "ask"), 0.0)
    out["text.stem_calls_per_ask"] = span_calls.get(("stem", "ask"), 0) / asks
    out["text.stem_ms_per_ask"] = stem_s * 1e3 / asks
    out["text.stem_time_share"] = _ratio(stem_s, root_time.get("ask", 0.0))
    out["graphindex.build_ms"] = layer_self.get(
        ("graphindex", "setup"), 0.0) * 1e3
    out["graphindex.bfs_ms_per_ask"] = span_incl.get(
        ("bfs", "ask"), 0.0) * 1e3 / asks
    out["graphindex.ingest_ms_per_write"] = _ratio(
        layer_self.get(("graphindex", "add_text"), 0.0) * 1e3, ingests)
    out["extraction.generate_ms"] = layer_self.get(
        ("extraction", "setup"), 0.0) * 1e3
    out["extraction.ingest_ms_per_write"] = _ratio(
        layer_self.get(("extraction", "add_text"), 0.0) * 1e3, ingests)
    out["qa.build_ms"] = setup_top_qa * 1e3
    out["serving.self_us_per_ask"] = (
        layer_self.get(("serving", "ask"), 0.0) * 1e6 / asks)
    probed = sum(v for (_layer, b), v in layer_self.items()
                 if b in stream_buckets)
    out["trace.coverage_share"] = _ratio(
        probed, sum(root_time.get(b, 0.0) for b in stream_buckets))
    out["trace.overhead_share"] = (
        sum(traced.corrected(floor))
        / median([sum(r.corrected(floor)) for r in untraced]) - 1.0)
    out["trace.probe_missing"] = float(len(tracer.probe_missing))
    return out


def check_complete(metrics: Dict[str, float]) -> None:
    """Every catalogued metric is present, and nothing else."""
    expected = [name for name, _unit, _better in PER_LAYER]
    if sorted(metrics) != sorted(expected):
        raise AssertionError(
            "per-layer metrics differ from the catalogue: %s"
            % sorted(set(metrics) ^ set(expected)))


def units() -> Dict[str, str]:
    return {name: unit for name, unit, _better in PER_LAYER}
