"""Federated plan IR: compilation, signatures, golden digests.

Three layers of coverage:

* pure-IR units — the exact DAG ``compile_plan`` builds for every input
  it can receive, ``signature()`` canonicality, and the stage-kind
  vocabulary the tenancy gate pins;
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
    ROUTE_HYBRID, ROUTE_STRUCTURED, ROUTE_UNSTRUCTURED, compile_plan,
    render_plan,
)
from repro.qa.federation import RouteDecision
from repro.qa.plan import (
    STAGE_EXECUTE_TABLE, STAGE_EXECUTE_TEXT, STAGE_GROUND,
    STAGE_RETRIEVE_TOPOLOGY, STAGE_ROUTE, STAGE_SELECT_BEST,
    STAGE_SYNTHESIZE_SPEC, WHEN_ALWAYS, WHEN_RESCUE_ABSTAIN,
    WHEN_RESCUE_FAILED, WHEN_ROUTE,
)
from repro.tenancy import RLSRule, TenantContext, check_tenancy
from repro.tenancy.check import ROUTE_KIND, TABLE_KINDS, TEXT_KINDS

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


# (id, kind, engine, depends_on, when) of every stage compile_plan
# emits, written out by hand: the table below must not re-derive the
# compiler's own logic.
_ROUTE = ("route", STAGE_ROUTE, "router", (), WHEN_ALWAYS)
_TABLE_ARM = (
    ("synthesize", STAGE_SYNTHESIZE_SPEC, "structured", ("route",),
     WHEN_ROUTE),
    ("execute_table", STAGE_EXECUTE_TABLE, "structured", ("synthesize",),
     WHEN_ROUTE),
)
_RESCUE_ARM = (
    ("synthesize_rescue", STAGE_SYNTHESIZE_SPEC, "structured",
     ("route", "execute_text"), WHEN_RESCUE_FAILED),
    ("execute_table_rescue", STAGE_EXECUTE_TABLE, "structured",
     ("synthesize_rescue",), WHEN_RESCUE_FAILED),
)


def _text_arm(when):
    return (
        ("retrieve", STAGE_RETRIEVE_TOPOLOGY, "text", ("route",), when),
        ("execute_text", STAGE_EXECUTE_TEXT, "text", ("retrieve",), when),
    )


def _join(*heads):
    return (
        ("select_best", STAGE_SELECT_BEST, "selector", heads, WHEN_ALWAYS),
        ("ground", STAGE_GROUND, "grounding", ("select_best",),
         WHEN_ALWAYS),
    )


#: (route, has_text_engine) -> the exact stage rows, in order.
COMPILED_SHAPES = {
    (ROUTE_STRUCTURED, True): (
        _ROUTE, *_TABLE_ARM, *_text_arm(WHEN_RESCUE_ABSTAIN),
        *_RESCUE_ARM,
        *_join("execute_table", "execute_text", "execute_table_rescue"),
    ),
    (ROUTE_STRUCTURED, False): (
        _ROUTE, *_TABLE_ARM, *_join("execute_table"),
    ),
    (ROUTE_UNSTRUCTURED, True): (
        _ROUTE, *_text_arm(WHEN_ROUTE), *_RESCUE_ARM,
        *_join("execute_text", "execute_table_rescue"),
    ),
    (ROUTE_UNSTRUCTURED, False): (
        _ROUTE, *_join("route"),
    ),
    (ROUTE_HYBRID, True): (
        _ROUTE, *_TABLE_ARM, *_text_arm(WHEN_ROUTE), *_RESCUE_ARM,
        *_join("execute_table", "execute_text", "execute_table_rescue"),
    ),
    (ROUTE_HYBRID, False): (
        _ROUTE, *_TABLE_ARM, *_join("execute_table"),
    ),
}

_RLS = (RLSRule("sales", "year", "=", 2024),)
_SCOPES = ("review-", "ship-")
#: Every kind of tenant compile_plan distinguishes.
TENANT_CASES = {
    "none": None,
    "rls only": TenantContext("t-rls", rls=_RLS),
    "scope only": TenantContext("t-scope", doc_scopes=_SCOPES),
    "both": TenantContext("t-both", rls=_RLS, doc_scopes=_SCOPES),
}


class CompilePlanTest(unittest.TestCase):
    def test_every_compile_input_yields_its_exact_dag(self):
        """3 routes x text engine or not x 4 tenant kinds: 24 cases.

        Each compiled plan has exactly its hand-written stage rows; the
        route stage binds the decision, ``rls`` sits on exactly the
        structured stages and ``scope`` on exactly the text stages, and
        the tenancy gate clears the plan for its own tenant.
        """
        cases = 0
        for (route, has_text), rows in COMPILED_SHAPES.items():
            for name, tenant in TENANT_CASES.items():
                with self.subTest(route=route, has_text=has_text,
                                  tenant=name):
                    cases += 1
                    plan = compile_plan(
                        "q", _decision(route, "because", ("sales",)),
                        has_text, tenant=tenant)
                    self.assertEqual(plan.route, route)
                    self.assertEqual(
                        tuple((s.id, s.kind, s.engine, s.depends_on,
                               s.when) for s in plan.stages), rows)
                    rls = tenant.rls_token() if tenant else ""
                    scope = tenant.scope_token() if tenant else ""
                    for stage in plan.stages:
                        want = ()
                        if stage.kind == STAGE_ROUTE:
                            want = (("bound_tables", "sales"),
                                    ("reason", "because"),
                                    ("route", route))
                        elif stage.kind in (STAGE_SYNTHESIZE_SPEC,
                                            STAGE_EXECUTE_TABLE) and rls:
                            want = (("rls", rls),)
                        elif stage.kind in (STAGE_RETRIEVE_TOPOLOGY,
                                            STAGE_EXECUTE_TEXT) and scope:
                            want = (("scope", scope),)
                        self.assertEqual(stage.params, want, stage.id)
                    if tenant is not None:
                        self.assertEqual(check_tenancy(plan, tenant), [])
        self.assertEqual(cases, 24)

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

    def test_compiled_plans_pass_static_checks(self):
        # The tenancy gate is the static pass run over compiled plans:
        # every route, with or without a text engine, clears it for a
        # tenant carrying both row-level rules and document scopes.
        tenant = TENANT_CASES["both"]
        for route in (ROUTE_STRUCTURED, ROUTE_UNSTRUCTURED, ROUTE_HYBRID):
            for has_text in (True, False):
                plan = compile_plan("q", _decision(route), has_text,
                                    tenant=tenant)
                self.assertEqual(
                    check_tenancy(plan, tenant), [],
                    "route=%s has_text=%s" % (route, has_text),
                )

    def test_tenancy_gate_names_the_plan_stage_kinds(self):
        # check_tenancy matches stages by kind; a kind renamed on one
        # side only would let ungoverned stages through the gate.
        self.assertEqual(TABLE_KINDS,
                         (STAGE_SYNTHESIZE_SPEC, STAGE_EXECUTE_TABLE))
        self.assertEqual(TEXT_KINDS,
                         (STAGE_RETRIEVE_TOPOLOGY, STAGE_EXECUTE_TEXT))
        self.assertEqual(ROUTE_KIND, STAGE_ROUTE)

    def test_route_params_are_bound(self):
        plan = compile_plan("q", _decision(ROUTE_HYBRID, "because",
                                           ("sales", "products")), True)
        route = plan.stage("route")
        self.assertEqual(route.param("reason"), "because")
        self.assertEqual(route.param("bound_tables"), "sales,products")


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
        self.assertIn("reason: ", rendered)

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
        self.assertIn("arm isolation:", out)
        self.assertIn("tableqa answer:", out)

    def test_pipeline_explain_plan_decomposes_comparisons(self):
        out = _pipeline("ecommerce").explain(GOLDEN_ECOMMERCE[4][0])
        self.assertIn("comparison of:", out)
        self.assertEqual(out.count("SelectBest"), 2)


if __name__ == "__main__":
    unittest.main()
