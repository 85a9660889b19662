"""Chaos tests: the pipeline under deterministic fault plans."""

import pytest

from repro.bench import LakeSpec, generate_ecommerce_lake
from repro.bench.runner import build_hybrid_system
from repro.resilience import (
    BackendFaults, FaultPlan, ResilienceConfig, ResilientBackend,
    SEVERITY_ABSTAIN,
)
from repro.resilience.smoke import run_chaos
from repro.retrieval import TopologyRetriever
from repro.serving import CachingRetriever, QueryServer


@pytest.fixture(scope="module")
def lake():
    return generate_ecommerce_lake(LakeSpec(n_products=4, seed=17))


def chaos_pipeline(lake, backends=None, budget=None, seed=3):
    _system, pipeline = build_hybrid_system(lake, seed=13)
    plan = None
    if backends:
        plan = FaultPlan(seed=seed, backends={
            name: BackendFaults(rate=rate, kinds=((kind, 1.0),))
            for name, (rate, kind) in backends.items()
        })
    pipeline.enable_resilience(
        ResilienceConfig(fault_plan=plan, budget=budget))
    return pipeline


class TestGracefulDegradation:
    def test_structured_engine_down_degrades_not_raises(self, lake):
        pipeline = chaos_pipeline(
            lake, backends={"relational": (1.0, "permanent")})
        question = lake.qa_pairs(per_kind=1)[0].question
        answer = pipeline.answer(question)  # must not raise
        assert answer.metadata["degraded"]
        record = answer.metadata["degradation"]
        assert record["severity"] in ("fallback", "abstain")
        assert any(e["kind"] == "permanent" for e in record["events"])

    def test_every_backend_transient_ends_in_typed_abstention(self, lake):
        pipeline = chaos_pipeline(lake, backends={
            name: (1.0, "transient")
            for name in ("relational", "document", "textstore",
                         "retriever", "slm")
        })
        answer = pipeline.answer(lake.qa_pairs(per_kind=1)[0].question)
        assert answer.abstained
        assert answer.confidence == 0.0
        record = answer.metadata["degradation"]
        assert record["severity"] == SEVERITY_ABSTAIN
        assert record["retries"] > 0  # transients were retried first

    def test_zero_budget_is_an_immediate_deadline(self, lake):
        pipeline = chaos_pipeline(lake, budget=0)
        answer = pipeline.answer(lake.qa_pairs(per_kind=1)[0].question)
        assert answer.abstained
        events = answer.metadata["degradation"]["events"]
        assert any(e["kind"] == "budget_exceeded" for e in events)

    def test_recovered_fault_keeps_answer_with_small_penalty(self, lake):
        plain = chaos_pipeline(lake)
        question = lake.qa_pairs(per_kind=1)[0].question
        clean = plain.answer(question)
        # A generous retry allowance beats a low transient-only rate on
        # some question; scan a few seeds for a recovered case.
        for seed in range(10):
            pipeline = chaos_pipeline(
                lake, backends={"relational": (0.3, "transient")},
                seed=seed)
            answer = pipeline.answer(question)
            record = answer.metadata.get("degradation")
            if record and record["severity"] == "recovered":
                assert not answer.abstained
                assert answer.text == clean.text
                assert answer.confidence < clean.confidence
                return
        pytest.fail("no seed produced a recovered answer")

    def test_degradation_records_match_injector_log(self, lake):
        pipeline = chaos_pipeline(lake, backends={
            name: (0.4, "transient")
            for name in ("relational", "retriever", "slm")
        })
        injector = pipeline.resilience.injector
        for pair in lake.qa_pairs(per_kind=1):
            before = len(injector.log)
            answer = pipeline.answer(pair.question)
            fired = len(injector.log) - before
            record = answer.metadata.get("degradation") or {}
            noted = sum(
                1 for e in record.get("events", ())
                if not e["fatal"] and e["detail"].startswith("injected")
            )
            assert fired == noted


def _proxy_chain(retriever):
    """The retriever's wrappers, outermost first, down to the core."""
    chain = [retriever]
    while not isinstance(chain[-1], TopologyRetriever):
        proxy = chain[-1]
        chain.append(proxy.resilient_target
                     if isinstance(proxy, ResilientBackend)
                     else proxy.wrapped_retriever)
    return chain


class TestRetrieverProxiesSurviveIngest:
    """A text write must not strip the retriever's resilience proxy
    (the parent replaced it by a bare retriever on the first ingest)."""

    APPENDS = [
        ("late-1", "The loading dock was repainted over the weekend."),
        ("late-2", "Visitors are asked to sign the log book."),
    ]

    @pytest.mark.parametrize("served", [False, True])
    def test_appends_keep_every_wrapper_object(self, lake, served):
        pipeline = chaos_pipeline(
            lake, backends={"retriever": (1.0, "transient")})
        if served:
            QueryServer(pipeline)
        before = _proxy_chain(pipeline._retriever)
        kinds = [type(link) for link in before]
        assert kinds == ([CachingRetriever] if served else []) + [
            ResilientBackend, TopologyRetriever]
        for doc in self.APPENDS:
            pipeline.ingest_incremental([doc])
            after = _proxy_chain(pipeline._retriever)
            assert all(a is b for a, b in zip(after, before))
            assert len(after) == len(before)
            assert pipeline.text_qa._retriever is before[0]
        # The fault plan still reaches retrieval: every call faults.
        injector = pipeline.resilience.injector
        fired = len(injector.log)
        pipeline.answer("Was the loading dock repainted?")
        assert {(f.backend, f.op) for f in injector.log[fired:]} == {
            ("retriever", "retrieve")}

    @pytest.mark.parametrize("served", [False, True])
    def test_a_rebuild_guards_the_new_retriever_again(self, lake, served):
        pipeline = chaos_pipeline(
            lake, backends={"retriever": (1.0, "transient")})
        if served:
            QueryServer(pipeline)
        core = _proxy_chain(pipeline._retriever)[-1]
        doc_id = pipeline.text_store.doc_ids()[0]
        pipeline.ingest_incremental([(doc_id, "Nothing to see here.")])
        chain = _proxy_chain(pipeline._retriever)
        assert chain[-1] is not core  # replaced document: rebuilt
        assert sorted(type(link).__name__ for link in chain) == sorted(
            (["CachingRetriever"] if served else [])
            + ["ResilientBackend", "TopologyRetriever"])


class TestChaosSweep:
    def test_smoke_sweep_passes(self):
        assert run_chaos() == []
