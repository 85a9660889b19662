"""Tests for the pipeline explain() trace (``ask --explain-plan``)."""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro.bench.runner import StackConfig, build_stack
from repro.cli import main

from repro.errors import ReproError
from repro.metering import CostMeter
from repro.qa import HybridQAPipeline
from repro.slm import SLMConfig, SmallLanguageModel
from repro.tenancy import TenantContext
from repro.text.ner import TYPE_PRODUCT, Gazetteer


@pytest.fixture(scope="module")
def pipeline():
    gaz = Gazetteer()
    gaz.add(TYPE_PRODUCT, ["Alpha Widget", "Beta Gadget"])
    slm = SmallLanguageModel(SLMConfig(seed=0), gazetteer=gaz,
                             meter=CostMeter())
    pipe = HybridQAPipeline(slm, meter=CostMeter())
    pipe.add_sql([
        "CREATE TABLE products (pid INT PRIMARY KEY, name TEXT)",
        "CREATE TABLE sales (sid INT PRIMARY KEY, pid INT, "
        "quarter TEXT, amount FLOAT)",
        "INSERT INTO products VALUES (1, 'Alpha Widget'), "
        "(2, 'Beta Gadget')",
        "INSERT INTO sales VALUES (1, 1, 'q2', 120.0), "
        "(2, 2, 'q2', 180.0)",
    ])
    pipe.declare_entity_columns("products", ["name"])
    pipe.add_texts([
        ("rev1", "Satisfaction with the Alpha Widget increased 12% in "
                 "Q2 2024."),
        ("rev2", "Satisfaction with the Beta Gadget decreased 30% in "
                 "Q2 2024."),
    ])
    pipe.register_synonym("sales", "sales", "amount")
    pipe.register_join("sales", "pid", "products", "pid")
    pipe.generate_table("review_facts")
    pipe.build()
    return pipe


class TestExplain:
    def test_structured_trace(self, pipeline):
        trace = pipeline.explain("Find the total sales of all products "
                                 "in Q2.")
        assert "route=structured" in trace
        assert "AGG sum(amount)" in trace
        assert "tableqa answer: 300" in trace

    def test_unstructured_trace_shows_retrieval(self, pipeline):
        trace = pipeline.explain(
            "What tone did reviews take about shipping?"
        )
        assert "route=unstructured" in trace
        assert "retrieval:" in trace

    def test_comparison_trace_decomposes(self, pipeline):
        trace = pipeline.explain(
            "Compare the satisfaction change of the Alpha Widget and "
            "the Beta Gadget in Q2 2024."
        )
        assert "comparison of: alpha widget, beta gadget" in trace
        assert trace.count("sub[") == 2
        assert "SELECT change_percent" in trace

    def test_abstention_reported(self, pipeline):
        trace = pipeline.explain(
            "What is the average zorbulation of gleeps?"
        )
        assert "abstained" in trace or "route=unstructured" in trace

    def test_gate_rejected_plan_reaches_no_engine(self, pipeline):
        question = "Find the total sales of all products in Q2."
        tenant = TenantContext("reviews-only", tables=("review_facts",))
        trace = pipeline.explain(question, tenant=tenant)
        assert "tenancy: rejected" in trace
        assert "tenancy-invisible-table" in trace
        assert "tableqa" not in trace and "retrieval:" not in trace
        answer = pipeline.answer(question, tenant=tenant)
        assert answer.metadata["tenancy"] == "rejected"

    def test_requires_build(self):
        gaz = Gazetteer()
        slm = SmallLanguageModel(SLMConfig(seed=0), gazetteer=gaz,
                                 meter=CostMeter())
        pipe = HybridQAPipeline(slm, meter=CostMeter())
        with pytest.raises(ReproError):
            pipe.explain("anything")


TENANT_SPEC = (Path(__file__).resolve().parents[1] / "benchmarks" / "specs"
               / "load_ecommerce_tenants.json")
CRIMSON_Q3 = "What is the total sales of the Crimson Tracker in Q3?"
CHAOS_BACKENDS = ("relational", "document", "textstore", "retriever",
                  "slm")


class TestExplainIsTheExecutedPlan:
    def test_cli_explain_plan_compiles_under_the_tenant(self, tmp_path):
        registry = json.loads(TENANT_SPEC.read_text())["tenant_registry"]
        registry_file = tmp_path / "tenants.json"
        registry_file.write_text(json.dumps(registry))
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main(["ask", "--seed", "7", "--explain-plan",
                         "--tenants", str(registry_file),
                         "--tenant", "globex", CRIMSON_Q3])
        assert code == 0
        config = StackConfig(seed=7, tenant_registry=registry)
        _lake, pipe, _server = build_stack(config, serve=False)
        context = config.tenants.context("globex")
        executed = pipe._executor.compile(CRIMSON_Q3, tenant=context)
        header = buffer.getvalue().splitlines()[0]
        assert header.split()[1] == executed.digest()
        assert pipe.explain(CRIMSON_Q3, tenant=context) \
            == buffer.getvalue().rstrip("\n")

    def test_explain_never_raises_under_faults(self):
        faults = {"seed": 23, "backends": {
            name: {"rate": 0.9} for name in CHAOS_BACKENDS}}
        lake, pipe, _server = build_stack(
            StackConfig(seed=7, faults=faults), serve=False)
        traces = [pipe.explain("What reviews mention shipping?")]
        traces += [pipe.explain(pair.question) for pair in lake.qa_pairs()]
        assert "retrieval: fault (injected permanent fault on " \
            "retriever.retrieve)" in traces[0]
        assert all(trace.startswith(("plan ", "comparison of:"))
                   for trace in traces)
