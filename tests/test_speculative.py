"""Speculative federated execution: gating, isolation, race-and-rescue.

Covers the :mod:`repro.qa.speculative` tentpole end to end:

* **fail-closed capability gating** — a missing, unreadable, corrupt,
  ``unknown``- or ``conflicts``-verdict capability table always closes
  the gate (sequential execution) and never raises;
* **one interpreter** — every plan runs through ``PlanExecutor.execute``
  with the gate open or closed;
* **arm extraction and clearance** — plan arms, same-engine
  serialization, cross-arm stage-pair verdict checks;
* **arm-level failure isolation** — the rescue reserve (`ArmScope`),
  its protected first retry, and the observational per-arm breakers;
* **race-and-rescue delta** — under arm-targeted transient faults with
  a binding question budget, the speculative executor's abstention
  rate is strictly lower than the sequential baseline at fault rate
  0.2 and monotone non-worse across the fault-rate sweep, on both
  benchmark domains.
"""

import json
import pathlib
import tempfile
import unittest
from unittest import mock

from repro.bench import (
    HealthSpec, LakeSpec, generate_ecommerce_lake, generate_healthcare_lake,
)
from repro.bench.runner import build_hybrid_system
from repro.errors import TransientError
from repro.metering import CostMeter
from repro.obs import (
    METRIC_SPECULATION_CANCELLED, METRIC_SPECULATION_CANCELLED_WORK,
    METRIC_SPECULATION_RESCUED, METRIC_SPECULATION_WIN, REGISTRY, Tracer,
)
from repro.qa import (
    ROUTE_HYBRID, PlanExecutor, SpeculationGate, extract_arms,
)
from repro.resilience import (
    ArmScope, DegradationEvent, ResilienceConfig, ResilienceManager,
)

SEED = 13
FAULT_SEED = 23
#: The binding-budget regime the rescue-delta tests run under: backoff
#: costs 2000/4000 against a 6000-unit question budget, so a sequential
#: double-fault backoff spiral exhausts the budget before the text arm
#: can run, while the speculative rescue reserve cuts the spiral after
#: the protected first retry and leaves budget for the rescue.
HEDGE_BUDGET = 6000
HEDGE_RETRY = {"max_attempts": 3, "backoff_base": 2000,
               "backoff_multiplier": 2}


def _counter(name):
    return REGISTRY.counter(name).value


def _lake(domain):
    if domain == "ecommerce":
        return generate_ecommerce_lake(LakeSpec(n_products=4, seed=17))
    return generate_healthcare_lake(HealthSpec(n_drugs=4, seed=17))


#: The two ways a gate is closed for every plan.
SWITCHED_OFF = SpeculationGate.disabled("switched off")
NO_TABLE = SpeculationGate.load(pathlib.Path("/nonexistent/table.json"))


def _pipeline(domain, gate=None, faults=None):
    lake = _lake(domain)
    _system, pipe = build_hybrid_system(
        lake, seed=SEED, speculation_gate=gate,
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
        plan = pipe.compile_plan(question)
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


class GateTableDefectsTest(unittest.TestCase):
    """Every table defect fails closed — denies, names why, never raises."""

    def _write(self, payload):
        tmp = tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False)
        with tmp as handle:
            handle.write(payload)
        self.addCleanup(pathlib.Path(tmp.name).unlink)
        return pathlib.Path(tmp.name)

    def test_committed_table_enables_hybrid_speculation(self):
        gate = SpeculationGate.load()
        self.assertTrue(gate.enabled, gate.reason)
        lake, pipe = _pipeline("ecommerce")
        questions = [p.question for p in lake.qa_pairs(per_kind=1)]
        plan = _hybrid_plan(pipe, questions)
        decision = gate.clearance(plan, extract_arms(plan))
        self.assertTrue(decision.speculative, decision.reasons)
        self.assertTrue(decision.raced)
        self.assertTrue(all(v == "safe-parallel"
                            for _, v in decision.pair_verdicts))

    def test_missing_table_fails_closed(self):
        gate = SpeculationGate.load(pathlib.Path("/nonexistent/t.json"))
        self.assertFalse(gate.enabled)
        self.assertIn("missing", gate.reason)

    def test_unparsable_table_fails_closed(self):
        gate = SpeculationGate.load(self._write("{not json"))
        self.assertFalse(gate.enabled)
        self.assertIn("unreadable", gate.reason)

    def test_table_without_pairs_fails_closed(self):
        gate = SpeculationGate.load(self._write('{"pairs": 7}'))
        self.assertFalse(gate.enabled)
        self.assertIn("no pair verdicts", gate.reason)

    def _clearance_with_verdict(self, verdict_or_entry):
        lake, pipe = _pipeline("ecommerce")
        questions = [p.question for p in lake.qa_pairs(per_kind=1)]
        plan = _hybrid_plan(pipe, questions)
        arms = extract_arms(plan)
        base = SpeculationGate.load()
        pairs = {}
        for arm_a in arms:
            for arm_b in arms:
                for kind_a in arm_a.kinds:
                    for kind_b in arm_b.kinds:
                        left, right = sorted((kind_a, kind_b))
                        pairs["%s|%s" % (left, right)] = (
                            verdict_or_entry
                            if isinstance(verdict_or_entry, dict)
                            or verdict_or_entry is None
                            else {"verdict": verdict_or_entry}
                        )
        path = self._write(json.dumps({"pairs": pairs}))
        gate = SpeculationGate.load(path)
        self.assertTrue(gate.enabled)
        return gate.clearance(plan, arms), base.clearance(plan, arms)

    def test_unknown_verdict_fails_closed(self):
        decision, healthy = self._clearance_with_verdict("unknown")
        self.assertTrue(healthy.speculative)
        self.assertFalse(decision.speculative)
        self.assertTrue(any("is unknown" in r for r in decision.reasons))

    def test_conflicts_verdict_fails_closed(self):
        decision, _ = self._clearance_with_verdict("conflicts")
        self.assertFalse(decision.speculative)
        self.assertTrue(any("is conflicts" in r
                            for r in decision.reasons))

    def test_corrupt_entry_shape_fails_closed(self):
        decision, _ = self._clearance_with_verdict({"verdict": 3})
        self.assertFalse(decision.speculative)
        self.assertTrue(any("is malformed" in r
                            for r in decision.reasons))

    def test_verdict_is_order_insensitive(self):
        gate = SpeculationGate(
            {"a|b": {"verdict": "safe-parallel"}})
        self.assertEqual(gate.verdict("b", "a"), "safe-parallel")
        self.assertEqual(gate.verdict("a", "z"), "absent")


class FailClosedExecutionTest(unittest.TestCase):
    """Denied plans run sequentially: identical answers, no exception."""

    def test_missing_table_reverts_to_sequential_answers(self):
        lake, seq = _pipeline("ecommerce", gate=SWITCHED_OFF)
        _lake2, gated = _pipeline("ecommerce", gate=NO_TABLE)
        before_seq = _counter("speculation.sequential")
        before_spec = _counter("speculation.plans")
        for pair in lake.qa_pairs(per_kind=1):
            want = seq.answer(pair.question).fingerprint()
            got = gated.answer(pair.question).fingerprint()
            self.assertEqual(got, want, pair.question)
        self.assertGreater(_counter("speculation.sequential"),
                           before_seq)
        self.assertEqual(_counter("speculation.plans"), before_spec)
        self.assertFalse(gated._executor.gate.enabled)  # noqa: SLF001

    def test_one_execute_per_compiled_plan_in_both_gate_states(self):
        for gate in (None, SWITCHED_OFF):
            lake, pipe = _pipeline("ecommerce", gate=gate)
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
        for gate in (SWITCHED_OFF, NO_TABLE):
            lake, pipe = _pipeline("ecommerce", gate=gate)
            pairs = lake.qa_pairs(per_kind=1)
            before = _counter("speculation.sequential")
            tracer = Tracer(meter=pipe.meter)
            with tracer.activate():
                for pair in pairs:
                    pipe.answer(pair.question)
            self.assertGreaterEqual(
                _counter("speculation.sequential") - before, len(pairs))
            self.assertNotIn("qa.speculate",
                             {node.name for node in tracer.spans()})
            self.assertEqual(pipe.resilience.arm_breaker_states(), {})

    def test_denied_plan_explains_fail_closed(self):
        for gate, why in ((SWITCHED_OFF, "(switched off)"),
                          (NO_TABLE, "table.json is missing)")):
            _lake, pipe = _pipeline("ecommerce", gate=gate)
            text = pipe.explain_plan("Which product has the best rating?")
            self.assertIn(
                "speculation: off — fail closed to sequential", text)
            self.assertIn(why, text)

    def test_cleared_plan_explains_arms_and_verdicts(self):
        lake, pipe = _pipeline("ecommerce")
        questions = [p.question for p in lake.qa_pairs(per_kind=1)]
        plan = _hybrid_plan(pipe, questions)
        text = pipe.explain_plan(plan.question)
        self.assertIn("speculation: on", text)
        self.assertIn("safe-parallel", text)
        self.assertIn("arm structured", text)
        self.assertIn("arm text", text)


class ArmIsolationTest(unittest.TestCase):
    """ArmScope accounting, the rescue reserve, per-arm breakers."""

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

    def test_arm_breakers_are_observational(self):
        manager = self._manager()
        with manager.arm("structured") as scope:
            scope.note(DegradationEvent(
                "structured", "answer", "transient", fatal=True))
        with manager.arm("text"):
            pass
        states = manager.arm_breaker_states()
        self.assertEqual(set(states), {"structured", "text"})
        self.assertTrue(all(s == "closed" for s in states.values()))
        # the question-level breakers are untouched by arm accounting
        self.assertEqual(manager.breaker_states(), {})

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
    """Arm-targeted faults + binding budget: speculation rescues.

    At fault rate 0.2 the open-gate abstention count must be
    *strictly* lower than the closed-gate baseline, and across the
    fault-rate sweep it must never be higher (monotone non-worse
    degradation), with correctness also non-worse — on both domains.
    """

    def _run(self, domain, speculative, rate):
        lake, pipe = _pipeline(
            domain, gate=None if speculative else SWITCHED_OFF,
            faults=_arm_faults(rate))
        abstained = correct = 0
        pairs = lake.qa_pairs(per_kind=4)
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
        before = {
            name: _counter(name)
            for name in (METRIC_SPECULATION_WIN,
                         METRIC_SPECULATION_CANCELLED,
                         METRIC_SPECULATION_RESCUED)
        }
        self._run("ecommerce", True, 0.3)
        self.assertGreater(_counter(METRIC_SPECULATION_WIN),
                           before[METRIC_SPECULATION_WIN])
        self.assertGreater(_counter(METRIC_SPECULATION_CANCELLED),
                           before[METRIC_SPECULATION_CANCELLED])
        self.assertGreater(_counter(METRIC_SPECULATION_RESCUED),
                           before[METRIC_SPECULATION_RESCUED])
        histograms = REGISTRY.snapshot()["histograms"]
        self.assertIn(METRIC_SPECULATION_CANCELLED_WORK, histograms)


if __name__ == "__main__":
    unittest.main()
