"""Tracing contract tests.

Pins the properties the observability layer promises: spans strictly
nest, durations are non-negative and children sum to at most their
parent, every pipeline stage emits at least one span on an end-to-end
``answer()``, and per-span cost deltas reconcile exactly with the
system's global :class:`~repro.metering.CostMeter`.
"""

import ast
import json
import pathlib
import re
import time

import pytest

from repro.bench import LakeSpec, generate_ecommerce_lake
from repro.bench.runner import build_hybrid_system, run_qa_suite
from repro.metering import CostMeter
from repro.obs import (
    Tracer, active_tracer, aggregate_stages, install,
    render_trace, span, trace_to_json,
)
from repro.obs.tracer import _NULL_SPAN


@pytest.fixture(scope="module")
def traced_run():
    """One traced suite: (tracer, global meter diff, n_queries)."""
    lake = generate_ecommerce_lake(LakeSpec(n_products=6, seed=23))
    system, pipeline = build_hybrid_system(lake, seed=23)
    pairs = lake.qa_pairs(per_kind=2)
    tracer = Tracer(meter=pipeline.meter)
    before = pipeline.meter.snapshot()
    with tracer.activate():
        for pair in pairs:
            system.answer(pair.question)
    return tracer, pipeline.meter.diff(before), len(pairs)


class TestSpanMechanics:
    def test_spans_strictly_nest(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
            with tracer.span("d"):
                pass
        (root,) = tracer.roots
        assert root.name == "a"
        assert [c.name for c in root.children] == ["b", "d"]
        assert [c.name for c in root.children[0].children] == ["c"]

    def test_sibling_roots(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [r.name for r in tracer.roots] == ["first", "second"]
        assert tracer.last.name == "second"

    def test_span_closes_on_exception(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        (root,) = tracer.roots
        assert root.ended is not None
        # The stack unwound: a new span becomes a root, not a child.
        with tracer.span("after"):
            pass
        assert [r.name for r in tracer.roots] == ["boom", "after"]

    def test_attrs_via_set_and_kwargs(self):
        tracer = Tracer()
        with tracer.span("s", k=5) as sp:
            sp.set("extra", "v")
        assert tracer.roots[0].attrs == {"k": 5, "extra": "v"}

    def test_meter_cost_attached(self):
        meter = CostMeter()
        tracer = Tracer(meter=meter)
        with tracer.span("outer"):
            meter.charge("widgets", 2)
            with tracer.span("inner"):
                meter.charge("widgets", 3)
        (outer,) = tracer.roots
        assert outer.cost == {"widgets": 5}
        assert outer.children[0].cost == {"widgets": 3}
        assert outer.self_cost == {"widgets": 2}

    def test_activate_restores_previous(self):
        assert active_tracer() is None
        outer, inner = Tracer(), Tracer()
        with outer.activate():
            assert active_tracer() is outer
            with inner.activate():
                assert active_tracer() is inner
            assert active_tracer() is outer
        assert active_tracer() is None

    def test_module_span_is_noop_without_tracer(self):
        assert active_tracer() is None
        handle = span("anything", k=1)
        assert handle is _NULL_SPAN
        with handle as sp:
            sp.set("ignored", True)  # must not raise

    def test_install_and_reset(self):
        tracer = Tracer()
        install(tracer)
        try:
            with span("visible"):
                pass
        finally:
            install(None)
        assert [r.name for r in tracer.roots] == ["visible"]
        tracer.reset()
        assert tracer.roots == [] and tracer.last is None


class TestEndToEndTrace:
    REQUIRED = (
        "qa.answer", "qa.route", "qa.tableqa", "qa.textqa",
        "qa.cross_check", "retrieval.topology", "sql.execute",
        "sql.plan", "sql.exec", "graph.bfs", "slm.tag",
    )

    def test_every_stage_emits_a_span(self, traced_run):
        tracer, _, _ = traced_run
        names = {node.name for node in tracer.spans()}
        missing = [r for r in self.REQUIRED if r not in names]
        assert not missing, "no spans for stages: %s" % missing

    def test_durations_non_negative_and_children_bounded(self, traced_run):
        tracer, _, _ = traced_run
        for node in tracer.spans():
            assert node.ended is not None
            assert node.duration >= 0.0
            child_sum = sum(c.duration for c in node.children)
            assert child_sum <= node.duration + 1e-6
            assert node.self_duration >= -1e-6

    def test_one_qa_answer_root_per_query(self, traced_run):
        tracer, _, n_queries = traced_run
        roots = [r for r in tracer.roots if r.name == "qa.answer"]
        assert len(roots) == n_queries

    def test_costs_reconcile_with_global_meter(self, traced_run):
        tracer, global_cost, _ = traced_run
        total = {}
        for root in tracer.roots:
            for name, amount in root.cost.items():
                total[name] = total.get(name, 0) + amount
        assert total == {k: v for k, v in global_cost.items() if v}

    def test_self_costs_telescope_to_root(self, traced_run):
        tracer, _, _ = traced_run
        for root in tracer.roots:
            summed = {}
            for node in root.walk():
                for name, amount in node.self_cost.items():
                    summed[name] = summed.get(name, 0) + amount
            assert {k: v for k, v in summed.items() if v} == \
                {k: v for k, v in root.cost.items() if v}

    def test_disabled_span_overhead_under_budget(self, traced_run):
        """Untraced, the spans one query opens cost < 3% of answering it."""
        tracer, _, n_queries = traced_run
        lake = generate_ecommerce_lake(LakeSpec(n_products=6, seed=23))
        system, _ = build_hybrid_system(lake, seed=23)
        questions = [p.question for p in lake.qa_pairs(per_kind=2)]
        for _pass in ("warm-up", "timed"):
            started = time.perf_counter()
            for question in questions:
                system.answer(question)
        per_query = (time.perf_counter() - started) / len(questions)
        started = time.perf_counter()
        for _ in range(200_000):
            with span("noop"):
                pass
        per_span = (time.perf_counter() - started) / 200_000
        spans_per_query = sum(1 for _ in tracer.spans()) / n_queries
        assert per_span * spans_per_query / per_query < 0.03


class TestExporters:
    def test_trace_to_json_shape(self, traced_run):
        tracer, _, _ = traced_run
        data = json.loads(trace_to_json(tracer))
        assert isinstance(data, list) and data
        node = data[0]
        assert node["name"] == "qa.answer"
        assert node["duration_s"] >= 0.0
        assert isinstance(node.get("children", []), list)

    def test_render_trace_rows(self, traced_run):
        tracer, _, _ = traced_run
        text = render_trace(tracer)
        lines = text.splitlines()
        assert lines[0].startswith("span")
        assert len(lines) == 1 + sum(1 for _ in tracer.spans())
        assert "qa.answer" in text and "ms" in text

    def test_render_trace_empty(self):
        assert render_trace(Tracer()) == "(no spans recorded)"

    def test_aggregate_stages(self, traced_run):
        tracer, global_cost, n_queries = traced_run
        stages = aggregate_stages(tracer)
        assert stages["qa.answer"]["calls"] == n_queries
        total_seconds = sum(s["seconds"] for s in stages.values())
        root_seconds = sum(r.duration for r in tracer.roots)
        assert total_seconds == pytest.approx(root_seconds, rel=1e-6)
        merged = {}
        for entry in stages.values():
            for name, amount in entry["cost"].items():
                merged[name] = merged.get(name, 0) + amount
        assert {k: v for k, v in merged.items() if v} == \
            {k: v for k, v in global_cost.items() if v}


REPO = pathlib.Path(__file__).parent.parent


def _emitted_span_names():
    """Every ``span("name")`` / ``<x>.span("name")`` call under src/repro
    outside ``repro.obs`` (whose tracer forwards a caller's name)."""
    names = set()
    src = REPO / "src" / "repro"
    for path in sorted(src.rglob("*.py")):
        if path.parent == src / "obs":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else \
                getattr(func, "attr", None)
            if callee != "span" or not node.args:
                continue
            first = node.args[0]
            assert isinstance(first, ast.Constant) and \
                isinstance(first.value, str), (
                    "%s:%d: span name is not a literal"
                    % (path, node.lineno))
            names.add(first.value)
    return names


def _catalogued_span_names():
    """First-column names of the span table in docs/observability.md."""
    text = (REPO / "docs" / "observability.md").read_text()
    table = text.split("### Span taxonomy", 1)[1].split("\n\n")[1]
    names = []
    for row in table.splitlines()[2:]:
        cell = row.split("|")[1].strip()
        match = re.fullmatch(r"`([a-z_.]+)`", cell)
        assert match, "span table row must name one span: %r" % row
        names.append(match.group(1))
    return names


class TestSpanCatalogue:
    def test_table_lists_exactly_the_emitted_spans(self):
        emitted = _emitted_span_names()
        catalogued = _catalogued_span_names()
        assert len(catalogued) == len(set(catalogued)), "duplicate rows"
        assert "qa.answer" in emitted
        assert sorted(set(catalogued) - emitted) == [], "stale rows"
        assert sorted(emitted - set(catalogued)) == [], "missing rows"


class TestBenchRunner:
    def test_run_qa_suite_with_repeats_and_trace(self):
        lake = generate_ecommerce_lake(LakeSpec(n_products=4, seed=29))
        system, _ = build_hybrid_system(lake, seed=29)
        pairs = lake.qa_pairs(per_kind=1)
        result = run_qa_suite(system, pairs, warmup=1, repeats=2,
                              trace=True)
        assert result.total_seconds > 0.0
        assert result.stages, "trace=True must populate stages"
        assert result.stages["qa.answer"]["calls"] == len(pairs)
        plain = run_qa_suite(system, pairs)
        assert plain.stages == {}
        assert plain.per_kind_accuracy == result.per_kind_accuracy

    def test_run_qa_suite_validates_args(self):
        lake = generate_ecommerce_lake(LakeSpec(n_products=4, seed=29))
        system, _ = build_hybrid_system(lake, seed=29)
        pairs = lake.qa_pairs(per_kind=1)
        with pytest.raises(ValueError):
            run_qa_suite(system, pairs, warmup=-1)
        with pytest.raises(ValueError):
            run_qa_suite(system, pairs, repeats=0)
