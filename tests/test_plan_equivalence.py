"""Refactor gate: plan-executed answers == the pre-plan pipeline.

``_legacy_answer`` is a line-for-line replica of the imperative
orchestration ``HybridQAPipeline`` shipped before the federated-plan
refactor (route → run_structured / run_text / structured rescue →
best_answer → cross-check → degradation metadata). Every benchmark
question on both domains must produce a byte-identical Answer
fingerprint through the compiled-plan executor — uncached, under the
chaos smoke's fault settings, and warm from the serving cache with
plan-signature keys.
"""

import unittest

from repro.bench import (
    HealthSpec, LakeSpec, generate_ecommerce_lake, generate_healthcare_lake,
)
from repro.bench.runner import build_hybrid_system
from repro.obs import Tracer
from repro.qa import (
    ANSWER_SYSTEM_HYBRID, ANSWER_SYSTEM_RAG, ROUTE_HYBRID,
    ROUTE_STRUCTURED, ROUTE_UNSTRUCTURED, Answer, ComparativeQA,
    best_answer,
)
from repro.qa.executor import cross_check
from repro.resilience import FaultPlan, ResilienceConfig

SEED = 13
CHAOS_SEED = 23
CHAOS_RATE = 0.3
CHAOS_BACKENDS = ("relational", "document", "textstore", "retriever",
                  "slm")
BUDGET = 500_000


def _build(domain, chaos=False, isolate_arms=True):
    if domain == "ecommerce":
        lake = generate_ecommerce_lake(LakeSpec(n_products=4, seed=17))
    else:
        lake = generate_healthcare_lake(HealthSpec(n_drugs=4, seed=17))
    faults = ResilienceConfig(
        fault_plan=FaultPlan.uniform(CHAOS_BACKENDS, CHAOS_RATE,
                                     seed=CHAOS_SEED),
        budget=BUDGET,
    ) if chaos else None
    _system, pipe = build_hybrid_system(
        lake, seed=SEED, isolate_arms=isolate_arms, resilience=faults)
    questions = [pair.question for pair in lake.qa_pairs(per_kind=1)]
    return pipe, questions


# ----------------------------------------------------------------------
# The pre-refactor answer path, replayed over pipeline internals
# ----------------------------------------------------------------------

def _legacy_single(pipe, question):
    decision = pipe._router.route(question)  # noqa: SLF001
    manager = pipe._resilience  # noqa: SLF001
    candidates = []
    failed_engines = []

    def run_structured():
        result, event = manager.try_call(
            "structured", "answer",
            lambda: pipe._table_qa.answer(question),  # noqa: SLF001
        )
        if event is not None:
            failed_engines.append("structured")
        elif result is not None:
            candidates.append(result)

    def run_text():
        if pipe._text_qa is None:  # noqa: SLF001
            return
        result, event = manager.try_call(
            "text", "answer",
            lambda: pipe._text_qa.answer(question),  # noqa: SLF001
        )
        if event is not None:
            failed_engines.append("text")
        elif result is not None:
            candidates.append(result)

    if decision.route in (ROUTE_STRUCTURED, ROUTE_HYBRID):
        run_structured()
    if decision.route in (ROUTE_UNSTRUCTURED, ROUTE_HYBRID) or all(
        a.abstained for a in candidates
    ):
        run_text()
    if failed_engines and "structured" not in failed_engines and all(
        a.abstained for a in candidates
    ):
        run_structured()
    if not candidates and not failed_engines:
        return Answer.abstain(ANSWER_SYSTEM_HYBRID, "no engine available")
    answer = cross_check(best_answer(candidates), candidates)
    if "route" not in answer.metadata:
        answer = answer.with_metadata(route=decision.route)
    if failed_engines:
        answer = answer.with_metadata(degraded=True)
        winner = ("text" if answer.system == ANSWER_SYSTEM_RAG
                  else "structured")
        if not answer.abstained and winner not in failed_engines:
            answer = answer.with_metadata(fallback_engine=winner)
    return answer


def _legacy_answer(pipe, question):
    with pipe._resilience.question() as scope:  # noqa: SLF001
        comparer = ComparativeQA(
            pipe._slm, lambda q: _legacy_single(pipe, q),  # noqa: SLF001
        )
        compared = pipe._resilience.shield(  # noqa: SLF001
            "compare", "try_answer",
            lambda: comparer.try_answer(question),
        )
        if compared is not None and not compared.abstained:
            answer = compared
            if "route" not in answer.metadata:
                answer = answer.with_metadata(route="comparison")
        else:
            answer = _legacy_single(pipe, question)
        return pipe._attach_degradation(answer, scope)  # noqa: SLF001


class UncachedEquivalenceTest(unittest.TestCase):
    """Clean runs: executor answers == legacy answers, both domains."""

    def _check(self, domain):
        legacy_pipe, questions = _build(domain)
        plan_pipe, _ = _build(domain)
        for question in questions:
            want = _legacy_answer(legacy_pipe, question).fingerprint()
            got = plan_pipe.answer(question).fingerprint()
            self.assertEqual(got, want, question)

    def test_ecommerce(self):
        self._check("ecommerce")

    def test_healthcare(self):
        self._check("healthcare")


class ChaosEquivalenceTest(unittest.TestCase):
    """Under the chaos smoke's fault settings the two paths still
    produce byte-identical answers: the executor replays the exact
    guarded-call sequence the injector's seeded streams key off."""

    def _check(self, domain):
        legacy_pipe, questions = _build(domain, chaos=True)
        plan_pipe, _ = _build(domain, chaos=True)
        degraded = 0
        for question in questions:
            legacy = _legacy_answer(legacy_pipe, question)
            answer = plan_pipe.answer(question)
            degraded += bool(answer.metadata.get("degraded"))
            self.assertEqual(answer.fingerprint(), legacy.fingerprint(),
                             question)
        # The comparison must have exercised the degradation path at
        # all, or this test proves nothing about chaos.
        self.assertGreater(degraded, 0)

    def test_ecommerce(self):
        self._check("ecommerce")

    def test_healthcare(self):
        self._check("healthcare")


class SpeculativeEquivalenceTest(unittest.TestCase):
    """Isolated arms == bare sequential run, byte for byte.

    With arms isolated the executor must replay the exact guarded-call
    sequence of a bare run (``isolate_arms=False``) whenever the
    question budget is not binding — uncached and under the chaos
    smoke's fault settings, on both domains. The reference run is
    asserted to open no ``qa.speculate`` span and the isolated run at
    least one, so the test cannot pass vacuously by comparing two bare
    runs.
    """

    def _check(self, domain, chaos):
        seq_pipe, questions = _build(domain, chaos=chaos,
                                     isolate_arms=False)
        spec_pipe, _ = _build(domain, chaos=chaos)
        seq_trace, spec_trace = Tracer(), Tracer()
        with seq_trace.activate():
            want = [seq_pipe.answer(q).fingerprint() for q in questions]
        self.assertEqual(seq_trace.find("qa.speculate"), [])
        with spec_trace.activate():
            got = [spec_pipe.answer(q).fingerprint() for q in questions]
        self.assertTrue(spec_trace.find("qa.speculate"))
        for question, got_one, want_one in zip(questions, got, want):
            self.assertEqual(got_one, want_one, question)

    def test_ecommerce_uncached(self):
        self._check("ecommerce", chaos=False)

    def test_healthcare_uncached(self):
        self._check("healthcare", chaos=False)

    def test_ecommerce_chaos(self):
        self._check("ecommerce", chaos=True)

    def test_healthcare_chaos(self):
        self._check("healthcare", chaos=True)


class WarmCacheEquivalenceTest(unittest.TestCase):
    """Serving with plan-signature cache keys: warm answers equal
    uncached answers, and the plan tier actually hits."""

    def test_warm_equals_uncached_with_signature_keys(self):
        from repro.serving import CachePolicy, QueryServer
        from repro.serving.scheduler import ServeRequest

        lake = generate_ecommerce_lake(LakeSpec(n_products=4, seed=17))
        _s, full_pipe = build_hybrid_system(lake, seed=SEED)
        _s, plan_pipe = build_hybrid_system(lake, seed=SEED)
        _s, plain_pipe = build_hybrid_system(lake, seed=SEED)
        full = QueryServer(full_pipe, policy=CachePolicy())
        # Plan tier alone: answers recompute every time, so repeats
        # must reach synthesis and hit the signature-keyed cache.
        plan_only = QueryServer(plan_pipe,
                                policy=CachePolicy.from_string("plan"))
        plain = QueryServer(plain_pipe, policy=CachePolicy.none())
        questions = [p.question for p in lake.qa_pairs(per_kind=1)]
        workload = [
            ServeRequest(op="ask", payload={"question": q})
            for q in questions
        ]
        want = [r.answer.fingerprint() for r in plain.serve(workload * 2)]
        got_full = [r.answer.fingerprint()
                    for r in full.serve(workload * 2)]
        got_plan = [r.answer.fingerprint()
                    for r in plan_only.serve(workload * 2)]
        self.assertEqual(got_full, want)
        self.assertEqual(got_plan, want)
        plan_stats = plan_only.stats()["cache"]["plan"]
        self.assertGreater(plan_stats["hits"], 0)


if __name__ == "__main__":
    unittest.main()
