"""Federated plan IR: compilation, static checks, golden signatures.

Three layers of coverage:

* pure-IR units — ``compile_plan`` shapes per route, ``signature()``
  canonicality, every ``check_plan`` diagnostic firing on a crafted
  invalid DAG (and staying silent on compiled ones);
* golden snapshots — the signature digest of every fixed benchmark
  question on both domains, pinning the compiled answer path;
* integration — the plan cache keyed by signature, the
  ``engine-dispatch`` lint rule, and ``cli ask --explain-plan``.
"""

import functools
import io
import unittest
from contextlib import redirect_stdout

from repro.bench import (
    HealthSpec, LakeSpec, generate_ecommerce_lake, generate_healthcare_lake,
)
from repro.bench.runner import build_hybrid_system
from repro.lint import LintEngine
from repro.qa import (
    ROUTE_HYBRID, ROUTE_STRUCTURED, ROUTE_UNSTRUCTURED, FederatedPlan,
    PlanStage, check_plan, compile_plan, render_plan,
)
from repro.qa.federation import RouteDecision
from repro.qa.plan import (
    STAGE_EXECUTE_TABLE, STAGE_EXECUTE_TEXT, STAGE_GROUND,
    STAGE_RETRIEVE_TOPOLOGY, STAGE_ROUTE, STAGE_SELECT_BEST,
    STAGE_SYNTHESIZE_SPEC, WHEN_RESCUE_ABSTAIN, WHEN_RESCUE_FAILED,
    WHEN_ROUTE,
)

#: (question, expected route, expected signature digest) per domain.
#: Regenerate via ``pipeline._executor.compile(q).digest()`` after any
#: deliberate change to routing, the stage vocabulary, or compilation.
GOLDEN_ECOMMERCE = [
    ("What is the total sales of the Crimson Tracker in Q3?",
     "structured", "a5915c1b4c00"),
    ("Find the total sales of Globex products in Q2.",
     "structured", "2ac11f8d95fa"),
    ("How much did satisfaction with the Rapid Charger change in Q4 2024?",
     "hybrid", "f4c2b00fcee4"),
    ("What is the average satisfaction change of products from Vandelay?",
     "structured", "619d2f9b69da"),
    ("Compare the satisfaction change of the Crimson Tracker and the "
     "Gamma Scale in Q3 2024.",
     "hybrid", "2694e5188be0"),
]
GOLDEN_HEALTHCARE = [
    ("What is the average efficacy of Hepatozol in Q3?",
     "structured", "f68f18626826"),
    ("Find the total enrolled of all trials in Q1.",
     "hybrid", "a77a8dd334e3"),
    ("How much did side effects of Hepatozol change in Q4 2024?",
     "hybrid", "1901bcbe6a16"),
    ("What is the average side-effect change of drugs for migraine?",
     "structured", "e728a41f4ae4"),
    ("Compare the side-effect change of Hepatozol and Nephrovir in "
     "Q4 2024.",
     "hybrid", "4749017257ba"),
]


def _decision(route, reason="test", bound=()):
    return RouteDecision(route, reason, tuple(bound))


def _codes(diagnostics):
    return [d.code for d in diagnostics]


class CompilePlanTest(unittest.TestCase):
    def test_structured_route_shape(self):
        plan = compile_plan("q", _decision(ROUTE_STRUCTURED),
                            has_text_engine=True)
        self.assertEqual(plan.route, ROUTE_STRUCTURED)
        self.assertEqual(
            plan.stage_ids(),
            ("route", "synthesize", "execute_table", "retrieve",
             "execute_text", "synthesize_rescue", "execute_table_rescue",
             "select_best", "ground"),
        )
        # Text arm is an abstention rescue on a structured route.
        self.assertEqual(plan.stage("execute_text").when,
                         WHEN_RESCUE_ABSTAIN)
        self.assertEqual(plan.stage("execute_table").when, WHEN_ROUTE)
        self.assertEqual(plan.stage("execute_table_rescue").when,
                         WHEN_RESCUE_FAILED)

    def test_unstructured_route_has_no_primary_structured_arm(self):
        plan = compile_plan("q", _decision(ROUTE_UNSTRUCTURED),
                            has_text_engine=True)
        self.assertNotIn("execute_table", plan.stage_ids())
        self.assertIn("execute_table_rescue", plan.stage_ids())
        self.assertEqual(plan.stage("execute_text").when, WHEN_ROUTE)

    def test_hybrid_route_runs_both_arms_and_grounds(self):
        plan = compile_plan("q", _decision(ROUTE_HYBRID),
                            has_text_engine=True)
        self.assertEqual(plan.stage("execute_table").when, WHEN_ROUTE)
        self.assertEqual(plan.stage("execute_text").when, WHEN_ROUTE)
        self.assertIn("ground", plan.stage_ids())

    def test_no_text_engine_drops_text_and_rescue_arms(self):
        plan = compile_plan("q", _decision(ROUTE_STRUCTURED),
                            has_text_engine=False)
        self.assertEqual(
            plan.stage_ids(),
            ("route", "synthesize", "execute_table", "select_best",
             "ground"),
        )

    def test_route_params_are_bound(self):
        plan = compile_plan("q", _decision(ROUTE_HYBRID, "because",
                                           ("sales", "products")), True)
        route = plan.stage("route")
        self.assertEqual(route.param("reason"), "because")
        self.assertEqual(route.param("bound_tables"), "sales,products")

    def test_compiled_plans_pass_static_checks(self):
        for route in (ROUTE_STRUCTURED, ROUTE_UNSTRUCTURED, ROUTE_HYBRID):
            for has_text in (True, False):
                plan = compile_plan("q", _decision(route), has_text)
                self.assertEqual(
                    _codes(check_plan(plan)), [],
                    "route=%s has_text=%s" % (route, has_text),
                )


class SignatureTest(unittest.TestCase):
    def test_signature_is_deterministic(self):
        a = compile_plan("Total sales?", _decision(ROUTE_HYBRID), True)
        b = compile_plan("Total sales?", _decision(ROUTE_HYBRID), True)
        self.assertEqual(a.signature(), b.signature())
        self.assertEqual(a.digest(), b.digest())

    def test_signature_normalizes_question_whitespace_and_case(self):
        a = compile_plan("Total sales?", _decision(ROUTE_HYBRID), True)
        b = compile_plan("  total SALES?  ", _decision(ROUTE_HYBRID), True)
        self.assertEqual(a.signature(), b.signature())

    def test_signature_separates_questions_and_routes(self):
        base = compile_plan("q1", _decision(ROUTE_HYBRID), True)
        other_q = compile_plan("q2", _decision(ROUTE_HYBRID), True)
        other_r = compile_plan("q1", _decision(ROUTE_STRUCTURED), True)
        self.assertNotEqual(base.signature(), other_q.signature())
        self.assertNotEqual(base.signature(), other_r.signature())

    def test_signature_is_hashable_cache_key(self):
        plan = compile_plan("q", _decision(ROUTE_HYBRID), True)
        self.assertEqual({plan.signature(): 1}[plan.signature()], 1)


class CheckPlanTest(unittest.TestCase):
    def _route_stage(self):
        return PlanStage(id="route", kind=STAGE_ROUTE, engine="router")

    def test_hybrid_without_ground_is_an_error(self):
        plan = FederatedPlan("q", ROUTE_HYBRID, (
            self._route_stage(),
            PlanStage(id="select_best", kind=STAGE_SELECT_BEST,
                      engine="selector", depends_on=("route",)),
        ))
        self.assertIn("missing-grounding", _codes(check_plan(plan)))

    def test_unreachable_stage_is_an_error(self):
        plan = FederatedPlan("q", ROUTE_HYBRID, (
            self._route_stage(),
            PlanStage(id="orphan", kind=STAGE_GROUND, engine="grounding"),
        ))
        self.assertIn("unreachable-stage", _codes(check_plan(plan)))

    def test_engine_route_mismatch_is_an_error(self):
        plan = FederatedPlan("q", ROUTE_UNSTRUCTURED, (
            self._route_stage(),
            PlanStage(id="synthesize", kind=STAGE_SYNTHESIZE_SPEC,
                      engine="structured", depends_on=("route",),
                      when=WHEN_ROUTE),
            PlanStage(id="execute_table", kind=STAGE_EXECUTE_TABLE,
                      engine="structured", depends_on=("synthesize",),
                      when=WHEN_ROUTE),
        ))
        self.assertIn("route-mismatch", _codes(check_plan(plan)))

    def test_text_primary_arm_on_structured_route_is_an_error(self):
        plan = FederatedPlan("q", ROUTE_STRUCTURED, (
            self._route_stage(),
            PlanStage(id="retrieve", kind=STAGE_RETRIEVE_TOPOLOGY,
                      engine="text", depends_on=("route",),
                      when=WHEN_ROUTE),
            PlanStage(id="execute_text", kind=STAGE_EXECUTE_TEXT,
                      engine="text", depends_on=("retrieve",),
                      when=WHEN_ROUTE),
        ))
        self.assertIn("route-mismatch", _codes(check_plan(plan)))

    def test_duplicate_unknown_and_cyclic_dependencies(self):
        plan = FederatedPlan("q", ROUTE_HYBRID, (
            self._route_stage(),
            PlanStage(id="a", kind=STAGE_GROUND, engine="grounding",
                      depends_on=("route", "b", "ghost")),
            PlanStage(id="b", kind=STAGE_GROUND, engine="grounding",
                      depends_on=("a",)),
            PlanStage(id="b", kind=STAGE_GROUND, engine="grounding",
                      depends_on=("a",)),
        ))
        codes = _codes(check_plan(plan))
        self.assertIn("duplicate-stage", codes)
        self.assertIn("unknown-dependency", codes)
        self.assertIn("dependency-cycle", codes)

    def test_execute_without_producer_is_an_error(self):
        plan = FederatedPlan("q", ROUTE_STRUCTURED, (
            self._route_stage(),
            PlanStage(id="execute_table", kind=STAGE_EXECUTE_TABLE,
                      engine="structured", depends_on=("route",),
                      when=WHEN_ROUTE),
        ))
        self.assertIn("missing-producer", _codes(check_plan(plan)))

    def test_wrong_engine_binding_is_an_error(self):
        plan = FederatedPlan("q", ROUTE_HYBRID, (
            self._route_stage(),
            PlanStage(id="ground", kind=STAGE_GROUND, engine="selector",
                      depends_on=("route",)),
        ))
        self.assertIn("engine-mismatch", _codes(check_plan(plan)))

    def test_unknown_route_and_missing_route_stage(self):
        no_anchor = FederatedPlan("q", "teleport", ())
        codes = _codes(check_plan(no_anchor))
        self.assertIn("unknown-route", codes)
        self.assertIn("missing-route-stage", codes)

    def _table_arm(self, suffix="", when=WHEN_ROUTE, deps=("route",)):
        sid = "synthesize" + suffix
        return (
            PlanStage(id=sid, kind=STAGE_SYNTHESIZE_SPEC,
                      engine="structured", depends_on=deps, when=when),
            PlanStage(id="execute_table" + suffix,
                      kind=STAGE_EXECUTE_TABLE, engine="structured",
                      depends_on=(sid,), when=when),
        )

    def test_rescue_with_no_other_engine_is_unreachable(self):
        # rescue_failed fires when a *different* engine's guarded call
        # failed; a structured-only plan can never trigger it.
        plan = FederatedPlan("q", ROUTE_STRUCTURED, (
            self._route_stage(),
            *self._table_arm(),
            *self._table_arm("_rescue", when=WHEN_RESCUE_FAILED),
            PlanStage(id="select_best", kind=STAGE_SELECT_BEST,
                      engine="selector",
                      depends_on=("execute_table",
                                  "execute_table_rescue")),
        ))
        self.assertIn("unreachable-condition", _codes(check_plan(plan)))

    def test_rescue_on_other_engine_is_reachable(self):
        plan = compile_plan("q", _decision(ROUTE_STRUCTURED), True)
        self.assertNotIn("unreachable-condition",
                         _codes(check_plan(plan)))

    def test_unconsumed_producer_output_is_flagged(self):
        plan = FederatedPlan("q", ROUTE_STRUCTURED, (
            self._route_stage(),
            PlanStage(id="synthesize", kind=STAGE_SYNTHESIZE_SPEC,
                      engine="structured", depends_on=("route",),
                      when=WHEN_ROUTE),
        ))
        self.assertIn("unread-output", _codes(check_plan(plan)))

    def test_unselected_execute_output_is_flagged(self):
        plan = FederatedPlan("q", ROUTE_STRUCTURED, (
            self._route_stage(),
            *self._table_arm(),
        ))
        codes = _codes(check_plan(plan))
        self.assertIn("unread-output", codes)
        self.assertIn("missing-selection", codes)

    def test_unordered_reuse_of_one_engine_is_flagged(self):
        plan = FederatedPlan("q", ROUTE_STRUCTURED, (
            self._route_stage(),
            *self._table_arm("_a"),
            *self._table_arm("_b"),
            PlanStage(id="select_best", kind=STAGE_SELECT_BEST,
                      engine="selector",
                      depends_on=("execute_table_a",
                                  "execute_table_b")),
        ))
        self.assertIn("unordered-engine-reuse",
                      _codes(check_plan(plan)))

    def test_dependency_path_orders_engine_reuse(self):
        # The same double dispatch is fine once an edge sequences it.
        plan = FederatedPlan("q", ROUTE_STRUCTURED, (
            self._route_stage(),
            *self._table_arm("_a"),
            *self._table_arm("_b", deps=("execute_table_a",)),
            PlanStage(id="select_best", kind=STAGE_SELECT_BEST,
                      engine="selector",
                      depends_on=("execute_table_b",)),
        ))
        self.assertNotIn("unordered-engine-reuse",
                         _codes(check_plan(plan)))


@functools.lru_cache(maxsize=None)
def _pipeline(domain):
    if domain == "ecommerce":
        lake = generate_ecommerce_lake(LakeSpec(n_products=4, seed=17))
    else:
        lake = generate_healthcare_lake(HealthSpec(n_drugs=4, seed=17))
    _system, pipe = build_hybrid_system(lake, seed=13)
    return pipe


class GoldenSignatureTest(unittest.TestCase):
    """Pinned digests: the compiled answer path per benchmark question.

    A digest change means routing, the stage vocabulary, or compilation
    changed — fine when deliberate; update the table from
    ``pipeline._executor.compile(question).digest()``.
    """

    def _check(self, pipeline, golden):
        for question, route, digest in golden:
            plan = pipeline._executor.compile(question)
            self.assertEqual(plan.route, route, question)
            self.assertEqual(plan.digest(), digest, question)
            self.assertEqual(check_plan(plan), [], question)

    def test_ecommerce_golden_digests(self):
        self._check(_pipeline("ecommerce"), GOLDEN_ECOMMERCE)

    def test_healthcare_golden_digests(self):
        self._check(_pipeline("healthcare"), GOLDEN_HEALTHCARE)

    def test_render_plan_shows_signature_and_stages(self):
        question = GOLDEN_ECOMMERCE[0][0]
        plan = _pipeline("ecommerce")._executor.compile(question)
        rendered = render_plan(plan)
        self.assertIn(plan.digest(), rendered)
        self.assertIn("SelectBest", rendered)
        self.assertIn("checks: clean", rendered)

    def test_plan_cache_is_keyed_by_signature(self):
        class RecordingCache:
            def __init__(self):
                self.keys = []

            def get(self, key):
                self.keys.append(key)
                return None

            def put(self, key, spec):
                pass

        cache = RecordingCache()
        question = GOLDEN_ECOMMERCE[0][0]
        pipe = _pipeline("ecommerce")
        pipe.set_plan_cache(cache)
        try:
            pipe.answer(question)
        finally:
            pipe.set_plan_cache(None)
        expected = pipe._executor.compile(question).signature()
        self.assertIn(expected, cache.keys)


class EngineDispatchRuleTest(unittest.TestCase):
    def _findings(self, source, relpath):
        return [f for f in LintEngine().lint_source(source, relpath)
                if f.rule == "engine-dispatch"]

    def test_flags_direct_engine_call_in_qa(self):
        source = ("def f(self, q):\n"
                  "    return self._table_qa.answer(q)\n")
        self.assertTrue(self._findings(source, "qa/pipeline.py"))

    def test_flags_retriever_retrieve_in_qa(self):
        source = ("def f(self, q):\n"
                  "    return self._retriever.retrieve(q)\n")
        self.assertTrue(self._findings(source, "qa/session.py"))

    def test_executor_and_engines_are_exempt(self):
        source = ("def f(self, q):\n"
                  "    return self._table_qa.answer(q)\n")
        for relpath in ("qa/executor.py", "qa/tableqa.py",
                        "qa/textqa.py", "serving/server.py"):
            self.assertFalse(self._findings(source, relpath), relpath)

    def test_other_receivers_are_not_flagged(self):
        source = ("def f(self, q):\n"
                  "    return self._pipeline.answer(q)\n")
        self.assertFalse(self._findings(source, "qa/session.py"))


class ExplainPlanCLITest(unittest.TestCase):
    def test_cli_ask_explain_plan_renders_dag(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "ask", "--explain-plan",
            "What is the total sales of the Crimson Tracker in Q3?",
        ])
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = args.func(args)
        out = buffer.getvalue()
        self.assertEqual(code, 0)
        self.assertIn("Route", out)
        self.assertIn("SelectBest", out)
        self.assertIn("checks: clean", out)

    def test_pipeline_explain_plan_decomposes_comparisons(self):
        out = _pipeline("ecommerce").explain_plan(GOLDEN_ECOMMERCE[4][0])
        self.assertIn("comparison of:", out)
        self.assertEqual(out.count("SelectBest"), 2)


if __name__ == "__main__":
    unittest.main()
