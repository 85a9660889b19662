"""Arm isolation: the rule, the rescue reserve, the rescue delta.

Covers :mod:`repro.qa.speculative` and the executor's use of it:

* **the rule** — a plan's arms are isolated iff they span at least two
  engines, over every plan ``compile_plan`` can produce and every plan
  the default lakes compile to; it needs no file;
* **one interpreter** — every plan runs through ``PlanExecutor.execute``
  isolated or bare (``isolate_arms=False``, the sequential reference);
* **arm extraction** — plan arms, engine naming, rescue suffixes;
* **arm-level failure isolation** — the rescue reserve (`ArmScope`)
  and its protected first retry;
* **rescue delta** — under arm-targeted transient faults with a binding
  question budget, the isolated run's abstention rate is strictly lower
  than the sequential reference at fault rate 0.2 and monotone
  non-worse across the fault-rate sweep, on both benchmark domains.
"""

import builtins
import itertools
import pathlib
import unittest
from contextlib import nullcontext
from unittest import mock

from repro.bench import (
    HealthSpec, LakeSpec, generate_ecommerce_lake, generate_healthcare_lake,
)
from repro.bench.runner import build_hybrid_system, generate_lake
from repro.errors import TransientError
from repro.metering import CostMeter
from repro.obs import Tracer
from repro.qa import (
    ROUTE_HYBRID, ROUTE_STRUCTURED, ROUTE_UNSTRUCTURED, PlanExecutor,
    RouteDecision, compile_plan, extract_arms,
)
from repro.resilience import (
    ArmScope, DegradationEvent, ResilienceConfig, ResilienceManager,
)
from repro.tenancy import RLSRule, TenantContext

SEED = 13
FAULT_SEED = 23
#: The binding-budget regime the rescue-delta tests run under: backoff
#: costs 2000/4000 against a 6000-unit question budget, so a sequential
#: double-fault backoff spiral exhausts the budget before the text arm
#: can run, while the isolated arm's rescue reserve cuts the spiral
#: after the protected first retry and leaves budget for the rescue.
HEDGE_BUDGET = 6000
HEDGE_RETRY = {"max_attempts": 3, "backoff_base": 2000,
               "backoff_multiplier": 2}


def _lake(domain):
    if domain == "ecommerce":
        return generate_ecommerce_lake(LakeSpec(n_products=4, seed=17))
    return generate_healthcare_lake(HealthSpec(n_drugs=4, seed=17))


def _pipeline(domain, isolate_arms=True, faults=None):
    lake = _lake(domain)
    _system, pipe = build_hybrid_system(
        lake, seed=SEED, isolate_arms=isolate_arms,
        resilience=(ResilienceConfig.from_dict(faults)
                    if faults is not None else None))
    return lake, pipe


def _arm_faults(rate):
    """Arm-targeted transient faults at *rate* with a binding budget."""
    return {
        "seed": FAULT_SEED,
        "backends": {
            "structured": {"rate": rate, "kinds": {"transient": 1.0}},
            "text": {"rate": rate / 2, "kinds": {"transient": 1.0}},
        },
        "retry": dict(HEDGE_RETRY),
        "budget": HEDGE_BUDGET,
    }


def _hybrid_plan(pipe, questions):
    """A compiled plan whose route is hybrid (has both engine arms)."""
    for question in questions:
        plan = pipe._executor.compile(question)
        if plan.route == ROUTE_HYBRID:
            return plan
    raise AssertionError("no hybrid-routed question found")


class ExtractArmsTest(unittest.TestCase):
    """Arm extraction: plan order, engine naming, rescue suffixes."""

    def setUp(self):
        lake, self.pipe = _pipeline("ecommerce")
        self.questions = [
            p.question for p in lake.qa_pairs(per_kind=1)
        ]

    def _plan(self, route_wanted):
        return _hybrid_plan(self.pipe, self.questions)

    def test_hybrid_plan_has_both_engine_arms(self):
        plan = self._plan(ROUTE_HYBRID)
        arms = extract_arms(plan)
        engines = [arm.engine for arm in arms]
        self.assertIn("structured", engines)
        self.assertIn("text", engines)
        # first arm per engine carries the bare engine id
        self.assertEqual(arms[0].arm_id, arms[0].engine)

    def test_rescue_arms_get_suffixed_ids(self):
        plan = self._plan(ROUTE_HYBRID)
        arms = extract_arms(plan)
        seen = {}
        for arm in arms:
            n = seen.get(arm.engine, 0)
            seen[arm.engine] = n + 1
            if n == 1:
                self.assertEqual(arm.arm_id, "%s-rescue" % arm.engine)
        self.assertEqual(len({a.arm_id for a in arms}), len(arms))

    def test_arm_kinds_include_producer_and_execute(self):
        plan = self._plan(ROUTE_HYBRID)
        for arm in extract_arms(plan):
            self.assertEqual(len(arm.kinds), 2)
            self.assertTrue(arm.kinds[-1].startswith("Execute"))


def _arm_isolation(plan, isolate_arms=True):
    """(arms, why sequential or None) as a ``PlanExecutor`` decides it."""
    executor = PlanExecutor(None, None, None, None, None,
                            isolate_arms=isolate_arms)
    return executor.arm_isolation(plan)


class IsolationRuleTest(unittest.TestCase):
    """Arms are isolated iff they span at least two engines."""

    def test_every_compilable_plan_shape(self):
        governed = TenantContext(
            tenant_id="acme", rls=(RLSRule("sales", "quarter", "=", "Q1"),),
            doc_scopes=("review-",))
        routes = (ROUTE_STRUCTURED, ROUTE_UNSTRUCTURED, ROUTE_HYBRID)
        for route, has_text, tenant in itertools.product(
                routes, (True, False), (None, governed)):
            plan = compile_plan(
                "q", RouteDecision(route, "test"), has_text_engine=has_text,
                tenant=tenant)
            arms, why_sequential = _arm_isolation(plan)
            isolated = why_sequential is None
            shape = (route, has_text, tenant is not None)
            self.assertEqual(
                isolated, len({arm.engine for arm in arms}) >= 2, shape)
            # always with a text engine, never without
            self.assertEqual(isolated, has_text, shape)
            self.assertEqual(
                _arm_isolation(plan, isolate_arms=False),
                (arms, "isolate_arms=False"), shape)

    def test_every_default_lake_plan_is_isolated(self):
        compiled = isolated = 0
        for domain, seed in itertools.product(
                ("ecommerce", "healthcare"), (7, 11)):
            lake = generate_lake(domain, seed)
            _system, pipe = build_hybrid_system(lake, seed=seed)
            for pair in lake.qa_pairs():
                plan = pipe._executor.compile(pair.question)
                compiled += 1
                isolated += _arm_isolation(plan)[1] is None
        self.assertEqual((isolated, compiled), (128, 128))


def test_arm_isolation_needs_no_file():
    """Building and asking read no file: the plan's shape decides."""
    denied = OSError("no file may be read")
    with mock.patch.object(pathlib.Path, "read_text", side_effect=denied), \
            mock.patch.object(builtins, "open", side_effect=denied):
        lake, pipe = _pipeline("ecommerce")
        plan = _hybrid_plan(
            pipe, [p.question for p in lake.qa_pairs(per_kind=1)])
        tracer = Tracer(meter=pipe.meter)
        with tracer.activate():
            pipe.answer(plan.question)
    arms = [node.attrs["arms"].split(",") for node in tracer.spans()
            if node.name == "qa.speculate"]
    assert arms, "no qa.speculate span"
    assert {"structured", "text"} <= set(arms[0])


class FailClosedExecutionTest(unittest.TestCase):
    """``isolate_arms=False`` is the plain sequential run of one loop.

    In the test ids a "closed gate" / "denied plan" is the bare run, a
    "cleared plan" the isolated one.
    """

    def test_one_execute_per_compiled_plan_in_both_gate_states(self):
        for isolate_arms in (True, False):
            lake, pipe = _pipeline("ecommerce", isolate_arms=isolate_arms)
            with mock.patch.object(
                PlanExecutor, "compile", autospec=True,
                side_effect=PlanExecutor.compile,
            ) as compiled, mock.patch.object(
                PlanExecutor, "execute", autospec=True,
                side_effect=PlanExecutor.execute,
            ) as executed:
                for pair in lake.qa_pairs(per_kind=1):
                    pipe.answer(pair.question)
            self.assertGreater(compiled.call_count, 0)
            self.assertEqual(executed.call_count, compiled.call_count)

    def test_closed_gate_is_plain_sequential_execution(self):
        lake, seq = _pipeline("ecommerce", isolate_arms=False)
        _lake2, isolated = _pipeline("ecommerce")
        pairs = lake.qa_pairs(per_kind=1)
        want = [isolated.answer(p.question).fingerprint() for p in pairs]
        tracer = Tracer(meter=seq.meter)
        with tracer.activate():
            got = [seq.answer(p.question).fingerprint() for p in pairs]
        self.assertEqual(got, want)
        self.assertEqual([root.name for root in tracer.roots],
                         ["qa.answer"] * len(pairs))
        for root in tracer.roots:  # every ask ran its plan's engines
            self.assertTrue({"qa.tableqa", "qa.textqa"}
                            & {node.name for node in root.walk()})
        self.assertNotIn("qa.speculate",
                         {node.name for node in tracer.spans()})

    def test_denied_plan_explains_fail_closed(self):
        _lake, pipe = _pipeline("ecommerce", isolate_arms=False)
        text = pipe.explain("Which product has the best rating?")
        self.assertIn(
            "arm isolation: off — sequential (isolate_arms=False)", text)
        self.assertNotIn("isolated", text)
        plan = compile_plan("q", RouteDecision(ROUTE_STRUCTURED, "test"),
                            has_text_engine=False)
        arms, sequential_because = _arm_isolation(plan)
        self.assertEqual(sequential_because, "arms on one engine")
        self.assertEqual([arm.arm_id for arm in arms], ["structured"])

    def test_cleared_plan_explains_arms_and_verdicts(self):
        lake, pipe = _pipeline("ecommerce")
        questions = [p.question for p in lake.qa_pairs(per_kind=1)]
        plan = _hybrid_plan(pipe, questions)
        text = pipe.explain(plan.question)
        self.assertIn("arm isolation: on (3 arms)", text)
        self.assertIn("arm structured", text)
        self.assertIn("arm text", text)
        self.assertNotIn("sequential", text)


class ArmIsolationTest(unittest.TestCase):
    """ArmScope accounting and the rescue reserve."""

    def _manager(self, budget=None):
        return ResilienceManager(
            CostMeter(),
            ResilienceConfig.from_dict({
                "retry": dict(HEDGE_RETRY), "budget": budget,
            }),
        )

    def test_clean_arm_is_never_throttled(self):
        scope = ArmScope("structured", CostMeter(), cap=0)
        self.assertFalse(scope.exhausted())

    def test_exhaustion_needs_fault_and_strict_overrun(self):
        meter = CostMeter()
        scope = ArmScope("structured", meter, cap=100)
        meter.charge("work", 100)
        scope.note(DegradationEvent("structured", "answer", "transient"))
        # spend == cap is still allowed (the protected retry boundary)
        self.assertFalse(scope.exhausted())
        meter.charge("work", 1)
        self.assertTrue(scope.exhausted())

    def test_arm_cap_is_clamped_to_first_backoff(self):
        manager = self._manager(budget=HEDGE_BUDGET)
        with manager.arm("structured", cap=1) as scope:
            self.assertEqual(scope.cap,
                             HEDGE_RETRY["backoff_base"])

    def test_reserve_cuts_backoff_spiral_not_first_retry(self):
        attempts = []

        def flaky():
            attempts.append(len(attempts))
            raise TransientError("transient backend glitch")

        manager = self._manager(budget=HEDGE_BUDGET)
        with manager.question():
            with manager.arm("structured", cap=2000) as scope:
                result, event = manager.try_call(
                    "structured", "answer", flaky)
        self.assertIsNone(result)
        self.assertIsNotNone(event)
        # first retry is protected (backoff 2000 == cap), the second
        # backoff (4000) would overrun the reserve and is cancelled
        self.assertEqual(len(attempts), 2)
        self.assertTrue(scope.reserve_cut)
        self.assertEqual(scope.spent_work, 2000)

    def test_uncapped_arm_retries_like_sequential(self):
        attempts = []

        def flaky():
            attempts.append(len(attempts))
            raise TransientError("transient backend glitch")

        manager = self._manager(budget=None)
        with manager.question():
            with manager.arm("structured") as scope:
                manager.try_call("structured", "answer", flaky)
        self.assertEqual(len(attempts), HEDGE_RETRY["max_attempts"])
        self.assertFalse(scope.reserve_cut)


class RescueDeltaTest(unittest.TestCase):
    """Arm-targeted faults + binding budget: the reserve rescues.

    At fault rate 0.2 the isolated run's abstention count must be
    *strictly* lower than the sequential reference's, and across the
    fault-rate sweep it must never be higher (monotone non-worse
    degradation), with correctness also non-worse — on both domains.
    """

    def _run(self, domain, isolate_arms, rate, tracer=None):
        lake, pipe = _pipeline(
            domain, isolate_arms=isolate_arms, faults=_arm_faults(rate))
        abstained = correct = 0
        pairs = lake.qa_pairs(per_kind=4)
        with tracer.activate() if tracer else nullcontext():
            for pair in pairs:
                answer = pipe.answer(pair.question)
                abstained += answer.abstained
                correct += pair.is_correct(answer)
        return abstained, correct, len(pairs)

    def _check_domain(self, domain):
        for rate in (0.0, 0.2, 0.5):
            seq_abstain, seq_correct, n = self._run(domain, False, rate)
            spec_abstain, spec_correct, _ = self._run(domain, True, rate)
            self.assertLessEqual(
                spec_abstain, seq_abstain,
                "rate %.1f: speculative degraded more" % rate)
            self.assertGreaterEqual(
                spec_correct, seq_correct,
                "rate %.1f: speculative lost accuracy" % rate)
            if rate == 0.0:
                self.assertEqual((seq_abstain, seq_correct), (0, n))
                self.assertEqual((spec_abstain, spec_correct), (0, n))
            if rate == 0.2:
                self.assertGreater(seq_abstain, 0,
                                   "baseline regime shows no stress")
                self.assertLess(spec_abstain, seq_abstain,
                                "no strict rescue delta at rate 0.2")

    def test_ecommerce(self):
        self._check_domain("ecommerce")

    def test_healthcare(self):
        self._check_domain("healthcare")

    def test_rescue_and_cancellation_metrics_fire(self):
        tracer = Tracer()
        self._run("ecommerce", True, 0.3, tracer)
        runs = [node.attrs for node in tracer.find("qa.speculate")]
        won = [a for a in runs if a["winner"] != "-"]
        self.assertTrue(won)
        self.assertGreater(sum(a["cancelled"] for a in runs), 0)
        self.assertTrue([a for a in won if a["failed_arms"] != "-"],
                        "no rescue: no arm failed under an answer")
        self.assertTrue(all("cancelled_work" in a for a in runs))


if __name__ == "__main__":
    unittest.main()
