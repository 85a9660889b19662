"""Tests for repro.resilience: faults, policies, breakers, degradation."""

import pytest

from repro.errors import (
    BudgetExceeded, CircuitOpenError, ReproError, StorageError,
    TransientError,
)
from repro.metering import CostMeter
from repro.resilience.faults import FAULT_BACKENDS
from repro.resilience import (
    BACKOFF_WORK, FAULT_TRANSIENT, STATE_CLOSED, STATE_HALF_OPEN,
    STATE_OPEN, BackendFaults, BreakerPolicy, CircuitBreaker,
    FaultInjector, FaultPlan, ResilienceConfig, ResilienceManager,
    RetryPolicy, WorkBudget, corrupt_result, work_now,
)


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(seed=9, backends={
            "relational": BackendFaults(rate=0.2, slow_cost=40),
            "slm": BackendFaults(
                rate=0.5, kinds=(("transient", 1.0),)),
        })
        assert FaultPlan.from_json(plan.to_json()).to_dict() == \
            plan.to_dict()

    def test_uniform_names_every_backend(self):
        plan = FaultPlan.uniform(("a", "b"), 0.3, seed=1)
        assert set(plan.backends) == {"a", "b"}
        assert plan.backends["a"].rate == 0.3

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            BackendFaults(rate=1.5)
        with pytest.raises(ValueError):
            BackendFaults(rate=0.1, kinds=(("meteor", 1.0),))

    def test_config_from_dict_parses_policies(self):
        config = ResilienceConfig.from_dict({
            "seed": 3,
            "backends": {"relational": {"rate": 0.25}},
            "retry": {"max_attempts": 5},
            "breaker": {"failure_threshold": 2, "cooldown": 50},
            "budget": 1000,
        })
        assert config.fault_plan.seed == 3
        assert config.retry.max_attempts == 5
        assert config.breaker.failure_threshold == 2
        assert config.budget == 1000

    @pytest.mark.parametrize("data, message", [
        ({"fault_rate": 0.1}, "faults has unknown key(s) fault_rate"),
        ({"backends": {"slm": {"rate": 0.1, "speed": 2}}},
         "backends.slm: backend has unknown key(s) speed"),
        ({"backends": {"slm": {"kinds": {"meteor": 1.0}}}},
         "backends.slm: kinds has unknown key(s) meteor"),
        ({"retry": {"jitter": 1}}, "retry has unknown key(s) jitter"),
        ({"breaker": {"halfopen": 1}},
         "breaker has unknown key(s) halfopen"),
        ({"backends": {"database": {"rate": 0.1}}},
         "no backend 'database'"),
        ({"backends": ["slm"]}, "backends must be an object"),
        # The stack has one store layout, so a shard is no backend.
        ({"backends": {"shard:0": {"rate": 0.1}}}, "no backend 'shard:0'"),
        ({"backends": {"shard:12": {"rate": 0.1}}},
         "no backend 'shard:12'"),
    ])
    def test_config_from_dict_is_strict(self, data, message):
        with pytest.raises(ValueError) as error:
            ResilienceConfig.from_dict(data)
        assert message in str(error.value)

    def test_every_guarded_backend_is_accepted(self):
        plan = FaultPlan.from_dict({"backends": {
            name: {"rate": 0.1} for name in FAULT_BACKENDS}})
        assert set(plan.backends) == set(FAULT_BACKENDS)


class TestFaultInjector:
    def _draws(self, plan, backend, n):
        injector = FaultInjector(plan)
        return [injector.draw(backend, "op") for _ in range(n)]

    def test_same_seed_same_sequence(self):
        plan = FaultPlan.uniform(("db",), 0.4, seed=11)
        assert self._draws(plan, "db", 200) == \
            self._draws(plan, "db", 200)

    def test_lower_rate_faults_on_subset_of_positions(self):
        low = self._draws(FaultPlan.uniform(("db",), 0.1, seed=7),
                          "db", 300)
        high = self._draws(FaultPlan.uniform(("db",), 0.6, seed=7),
                           "db", 300)
        low_positions = {i for i, k in enumerate(low) if k}
        high_positions = {i for i, k in enumerate(high) if k}
        assert low_positions and low_positions < high_positions

    def test_backend_streams_independent(self):
        solo = FaultPlan(seed=5, backends={"db": BackendFaults(rate=0.3)})
        both = FaultPlan(seed=5, backends={
            "db": BackendFaults(rate=0.3),
            "slm": BackendFaults(rate=0.9),
        })
        injector = FaultInjector(both)
        interleaved = []
        for _ in range(100):
            interleaved.append(injector.draw("db", "op"))
            injector.draw("slm", "op")
        assert interleaved == self._draws(solo, "db", 100)

    def test_unlisted_backend_never_faults(self):
        injector = FaultInjector(FaultPlan.uniform(("db",), 1.0, seed=1))
        assert all(injector.draw("other", "op") is None
                   for _ in range(50))

    def test_log_records_call_index(self):
        injector = FaultInjector(FaultPlan.uniform(("db",), 1.0, seed=1))
        for _ in range(3):
            injector.draw("db", "op")
        assert [fault.index for fault in injector.log] == [0, 1, 2]


class TestCorruptResult:
    def test_scalars_flip(self):
        assert corrupt_result(3) == -3
        assert corrupt_result(0) == 1
        assert corrupt_result(True) is False
        assert corrupt_result("abc") == "cba"
        assert corrupt_result(None) is None

    def test_sequences_reverse(self):
        assert corrupt_result([1, 2, 3]) == [3, 2, 1]
        assert corrupt_result((1.5, 2.5)) == (2.5, 1.5)

    def test_dict_values_recurse(self):
        assert corrupt_result({"a": 2}) == {"a": -2}

    def test_unmanageable_type_is_discarded(self):
        with pytest.raises(TransientError):
            corrupt_result(object(), backend="db", op="get")


class TestPolicies:
    def test_backoff_is_geometric(self):
        policy = RetryPolicy(backoff_base=5, backoff_multiplier=2)
        assert [policy.backoff_cost(a) for a in (1, 2, 3)] == [5, 10, 20]

    def test_budget_exceeded(self):
        budget = WorkBudget(limit=100)
        assert not budget.exceeded(99)
        assert budget.exceeded(100)
        assert not WorkBudget(limit=None).exceeded(10**9)

    def test_work_now_sums_counters(self):
        meter = CostMeter()
        meter.charge("a", 3)
        meter.charge("b", 4)
        assert work_now(meter) == 7


class TestCircuitBreaker:
    def test_full_state_cycle(self):
        breaker = CircuitBreaker(
            "db", BreakerPolicy(failure_threshold=2, cooldown=100))
        assert breaker.state == STATE_CLOSED
        breaker.record_failure(0)
        breaker.record_failure(10)
        assert breaker.state == STATE_OPEN
        with pytest.raises(CircuitOpenError):
            breaker.check(50)  # still cooling down
        breaker.check(110)  # cooldown elapsed on the work clock
        assert breaker.state == STATE_HALF_OPEN
        breaker.record_success(120)
        assert breaker.state == STATE_CLOSED

    def test_half_open_probe_failure_reopens(self):
        breaker = CircuitBreaker(
            "db", BreakerPolicy(failure_threshold=1, cooldown=10))
        breaker.record_failure(0)
        breaker.check(20)
        assert breaker.state == STATE_HALF_OPEN
        breaker.record_failure(21)
        assert breaker.state == STATE_OPEN

    def test_transitions_recorded(self):
        breaker = CircuitBreaker(
            "db", BreakerPolicy(failure_threshold=1, cooldown=10))
        breaker.record_failure(0)
        assert [(f, t) for f, t, _ in breaker.transitions] == \
            [(STATE_CLOSED, STATE_OPEN)]


def _manager(rate=0.0, kinds=None, budget=None, max_attempts=3,
             failure_threshold=5):
    meter = CostMeter()
    spec = {}
    if rate:
        spec["db"] = BackendFaults(
            rate=rate, kinds=kinds or ((FAULT_TRANSIENT, 1.0),))
    manager = ResilienceManager(meter, ResilienceConfig(
        fault_plan=FaultPlan(seed=2, backends=spec) if spec else None,
        retry=RetryPolicy(max_attempts=max_attempts),
        breaker=BreakerPolicy(failure_threshold=failure_threshold,
                              cooldown=100),
        budget=budget,
    ))
    return meter, manager


class TestResilienceManager:
    def test_attempt_retries_transient_and_charges_backoff(self):
        meter, manager = _manager(rate=1.0)
        with manager.question() as scope:
            with pytest.raises(TransientError):
                manager.attempt("db", "op", lambda: "ok")
        assert scope.retries == 2  # 3 attempts -> 2 backoffs
        assert meter.counters[BACKOFF_WORK] == 5 + 10

    def test_attempt_returns_after_recovery(self):
        meter, manager = _manager(rate=0.4)
        # Find a call position that faults once then succeeds on retry.
        results = [
            manager.attempt("db", "op", lambda: "ok") for _ in range(20)
        ]
        assert results == ["ok"] * 20
        assert manager.injector.log  # some faults did fire

    def test_permanent_fault_is_not_retried(self):
        meter, manager = _manager(rate=1.0, kinds=(("permanent", 1.0),))
        with pytest.raises(StorageError):
            manager.attempt("db", "op", lambda: "ok")
        assert len(manager.injector.log) == 1

    def test_try_call_absorbs_into_fatal_event(self):
        _, manager = _manager(rate=1.0)
        with manager.question() as scope:
            result, event = manager.try_call("db", "op", lambda: "ok")
        assert result is None
        assert event.fatal and event.kind == FAULT_TRANSIENT
        assert event in scope.events

    def test_breaker_opens_after_consecutive_failures(self):
        _, manager = _manager(rate=1.0, max_attempts=1,
                              failure_threshold=2)
        for _ in range(2):
            manager.try_call("db", "op", lambda: "ok")
        assert manager.breaker("db").state == STATE_OPEN
        calls_before = len(manager.injector.log)
        _, event = manager.try_call("db", "op", lambda: "ok")
        assert event.kind == "circuit_open"
        assert len(manager.injector.log) == calls_before  # short-circuited

    def test_budget_deadline_aborts_calls(self):
        meter, manager = _manager(budget=10)
        with manager.question():
            assert manager.invoke("db", "op", lambda: 1) == 1
            meter.charge("work", 50)
            with pytest.raises(BudgetExceeded):
                manager.invoke("db", "op", lambda: 1)

    def test_shield_returns_default_on_repro_error(self):
        _, manager = _manager()

        def boom():
            raise ReproError("nope")

        with manager.question() as scope:
            assert manager.shield("x", "op", boom, default=7) == 7
        assert scope.events and scope.events[0].fatal

    def test_question_scope_is_reentrant(self):
        _, manager = _manager()
        with manager.question() as outer:
            with manager.question() as inner:
                assert inner is outer

    def test_slow_fault_charges_the_work_clock(self):
        meter, manager = _manager(rate=1.0, kinds=(("slow", 1.0),))
        before = work_now(meter)
        assert manager.invoke("db", "op", lambda: "ok") == "ok"
        assert work_now(meter) > before


class TestResilientBackend:
    class Store:
        """A tiny duck-typed backend."""

        def __init__(self):
            self.items = ["a", "b"]

        def get(self, i):
            return self.items[i]

        def note(self):
            return "unguarded"

        def __len__(self):
            return len(self.items)

    def test_guarded_op_goes_through_injector(self):
        _, manager = _manager(rate=1.0, kinds=(("permanent", 1.0),))
        proxy = manager.wrap("db", self.Store(), ("get",))
        with pytest.raises(StorageError):
            proxy.get(0)

    def test_unguarded_attrs_forward(self):
        _, manager = _manager(rate=1.0, kinds=(("permanent", 1.0),))
        store = self.Store()
        proxy = manager.wrap("db", store, ("get",))
        assert proxy.note() == "unguarded"
        assert proxy.items is store.items
        assert len(proxy) == 2
        assert proxy.resilient_target is store
