"""Chaos tests: the pipeline under deterministic fault plans.

``TestChaosSweep`` holds the resilience contract over a seeded
fault-plan sweep at rising rates: ``answer()`` never raises; each
answer's degradation record notes exactly the faults the injector's
audit log says fired during it; a rate-0 plan is a no-op; quality
degrades monotonically with the rate; and a seeded plan replays
byte-identical answers and traces.
"""

from types import SimpleNamespace

import pytest

from repro.bench import LakeSpec, generate_ecommerce_lake
from repro.bench.runner import build_hybrid_system
from repro.obs import Tracer
from repro.resilience import (
    BackendFaults, FaultPlan, ResilienceConfig, ResilientBackend,
    SEVERITY_ABSTAIN,
)
from repro.retrieval import TopologyRetriever
from repro.serving import CachingRetriever, QueryServer

#: Every backend the pipeline can put behind a resilience proxy.
CHAOS_BACKENDS = ("relational", "document", "textstore", "retriever", "slm")


@pytest.fixture(scope="module")
def lake():
    return generate_ecommerce_lake(LakeSpec(n_products=4, seed=17))


def chaos_pipeline(lake, backends=None, budget=None, seed=3):
    plan = None
    if backends:
        plan = FaultPlan(seed=seed, backends={
            name: BackendFaults(rate=rate, kinds=((kind, 1.0),))
            for name, (rate, kind) in backends.items()
        })
    _system, pipeline = build_hybrid_system(
        lake, seed=13,
        resilience=ResilienceConfig(fault_plan=plan, budget=budget))
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
            name: (1.0, "transient") for name in CHAOS_BACKENDS
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
                     else proxy._inner)  # noqa: SLF001
    return chain


class TestRetrieverProxiesSurviveIngest:
    """A text write must not strip the retriever's resilience proxy
    (the parent replaced it by a bare retriever on the first ingest)."""

    APPENDS = [
        ("late-1", "The loading dock was repainted over the weekend."),
        ("late-2", "Visitors are asked to sign the log book."),
        # A replaced id is a delta too: the same objects stay.
        ("late-1", "The loading dock was repainted on Monday."),
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
        pipeline.build()
        chain = _proxy_chain(pipeline._retriever)
        assert chain[-1] is not core  # a new index, a new retriever
        # The first wiring's order: retrieval-cache hits never reach
        # the fault-injecting guard.
        assert [type(link) for link in chain] == (
            [CachingRetriever] if served else []) + [
            ResilientBackend, TopologyRetriever]
        assert pipeline.text_qa._retriever is chain[0]


# ----------------------------------------------------------------------
# The seeded fault-plan sweep
# ----------------------------------------------------------------------
RATES = (0.0, 0.1, 0.3, 0.5)
PLAN_SEED = 23
SLOW_COST = 40
BUDGET = 500_000  # generous per-question deadline, in CostMeter units


def _sweep_pipeline(lake, rate):
    """A fresh built pipeline under a uniform fault plan at *rate*."""
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


def _sweep_pass(lake, pairs, rate):
    """(answers, faults fired per answer) of one pass at *rate*; an
    answer that raised is kept as its exception."""
    pipeline = _sweep_pipeline(lake, rate)
    injector = pipeline.resilience.injector
    answers, fired = [], []
    for pair in pairs:
        before = len(injector.log)
        try:
            answers.append(pipeline.answer(pair.question))
        except Exception as exc:  # the contract under test: never raise
            answers.append(exc)
        fired.append(len(injector.log) - before)
    return answers, fired


def _span_fp(node):
    return (
        node.name,
        tuple(sorted((key, repr(val)) for key, val in node.attrs.items())),
        tuple(sorted(node.cost.items())),
        tuple(_span_fp(child) for child in node.children),
    )


def _traced_pass(lake, pairs, rate):
    """(answer fingerprints, trace fingerprint) of one traced pass; the
    trace keeps span names, attributes and cost deltas, not durations
    (wall time)."""
    pipeline = _sweep_pipeline(lake, rate)
    tracer = Tracer(meter=pipeline.meter)
    with tracer.activate():
        answers = [pipeline.answer(p.question).fingerprint() for p in pairs]
    return answers, repr([_span_fp(root) for root in tracer.roots])


@pytest.fixture(scope="module")
def sweep():
    lake = generate_ecommerce_lake(LakeSpec(n_products=8, seed=13))
    pairs = lake.qa_pairs(per_kind=1)
    _system, plain = build_hybrid_system(lake, seed=13)
    return SimpleNamespace(
        lake=lake, pairs=pairs,
        # Unprotected reference: what a rate-0 plan must reproduce.
        reference=[plain.answer(p.question).fingerprint() for p in pairs],
        runs={rate: _sweep_pass(lake, pairs, rate) for rate in RATES},
    )


class TestChaosSweep:
    def test_answer_never_raises(self, sweep):
        for rate, (answers, _fired) in sweep.runs.items():
            raised = [
                (pair.question, repr(answer))
                for pair, answer in zip(sweep.pairs, answers)
                if isinstance(answer, Exception)
            ]
            assert raised == [], "rate %.1f" % rate

    def test_degradation_records_match_the_injector_log(self, sweep):
        for rate, (answers, fired) in sweep.runs.items():
            for pair, answer, n_fired in zip(sweep.pairs, answers, fired):
                record = answer.metadata.get("degradation") or {}
                noted = sum(
                    1 for event in record.get("events", ())
                    if not event["fatal"]
                    and event["detail"].startswith("injected")
                )
                assert noted == n_fired, (rate, pair.question)
                if n_fired:
                    assert answer.metadata.get("degraded"), (
                        rate, pair.question)

    def test_rate_zero_plan_is_a_no_op(self, sweep):
        answers, _fired = sweep.runs[0.0]
        assert [a.fingerprint() for a in answers] == sweep.reference
        assert not any(a.metadata.get("degraded") for a in answers)

    def test_quality_degrades_monotonically(self, sweep):
        correct, degraded = [], []
        for rate in RATES:
            answers, _fired = sweep.runs[rate]
            correct.append(sum(bool(pair.is_correct(answer))
                               for pair, answer in zip(sweep.pairs,
                                                       answers)))
            degraded.append(sum(bool(answer.metadata.get("degraded"))
                                for answer in answers))
        assert correct == sorted(correct, reverse=True)
        assert degraded == sorted(degraded)
        assert sum(sum(fired) for _answers, fired
                   in sweep.runs.values()), "the sweep injected no faults"

    def test_a_seeded_plan_replays_answers_and_traces(self, sweep):
        first = _traced_pass(sweep.lake, sweep.pairs, 0.3)
        assert _traced_pass(sweep.lake, sweep.pairs, 0.3) == first
