"""The ResilientBackend facade and per-pipeline ResilienceManager.

Every backend call the hybrid pipeline makes — relational SQL,
document/text stores, retrievers, the SLM, and the two engine-level
dispatch points — can be routed through one guarded path::

    budget check -> circuit breaker -> fault injection -> real call

:class:`ResilienceManager` owns that path: it holds the retry policy,
the per-question :class:`~.policy.WorkBudget`, one
:class:`~.breaker.CircuitBreaker` per backend name, and the optional
:class:`~.faults.FaultInjector`. :class:`ResilientBackend` is a
duck-typed proxy that forwards every attribute of a wrapped backend
object but sends a configured set of method calls through the guard —
one facade shape for Database, DocumentStore, TextStore, retrievers
and the SLM alike.

This module is the **only** layer allowed to absorb
:class:`~repro.errors.ReproError` (enforced by the ``fault-absorption``
lint rule): callers use :meth:`ResilienceManager.try_call` /
:meth:`~ResilienceManager.shield` and receive degradation records
instead of writing their own broad except clauses.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..errors import (
    BudgetExceeded, CircuitOpenError, ReproError, StorageError,
    TransientError,
)
from ..metering import CostMeter
from ..obs import span
from .breaker import BreakerPolicy, CircuitBreaker
from .degradation import DegradationEvent
from .faults import (
    FAULT_CORRUPT, FAULT_PERMANENT, FAULT_SLOW, FAULT_TRANSIENT,
    FaultInjector, FaultPlan, check_keys, corrupt_result,
)
from .policy import (
    BACKOFF_WORK, RetryPolicy, SLOW_FAULT_WORK, WorkBudget, work_now,
)


@dataclass(frozen=True)
class ResilienceConfig:
    """Construction-time knobs of a :class:`ResilienceManager`.

    ``budget`` is the per-question work deadline in CostMeter units
    (None = unbounded); ``fault_plan`` enables deterministic chaos.
    """

    fault_plan: Optional[FaultPlan] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker: BreakerPolicy = field(default_factory=BreakerPolicy)
    budget: Optional[int] = None

    def __post_init__(self):
        WorkBudget(self.budget)  # rejects a negative budget here, not later

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (the ``--faults`` file format)."""
        out: Dict[str, Any] = {
            "retry": {
                "max_attempts": self.retry.max_attempts,
                "backoff_base": self.retry.backoff_base,
                "backoff_multiplier": self.retry.backoff_multiplier,
            },
            "breaker": {
                "failure_threshold": self.breaker.failure_threshold,
                "cooldown": self.breaker.cooldown,
            },
            "budget": self.budget,
        }
        if self.fault_plan is not None:
            out.update(self.fault_plan.to_dict())
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ResilienceConfig":
        """Parse the ``--faults`` JSON document.

        ``seed``/``backends`` feed the fault plan; ``retry``/
        ``breaker``/``budget`` tune the policies. Every key is
        optional; an unknown one, at any level, raises ``ValueError``.
        """
        check_keys("faults", data,
                   ("seed", "backends", "retry", "breaker", "budget"))
        retry_data = check_keys("retry", data.get("retry") or {}, (
            "max_attempts", "backoff_base", "backoff_multiplier"))
        breaker_data = check_keys("breaker", data.get("breaker") or {},
                                  ("failure_threshold", "cooldown"))
        plan = None
        if data.get("backends"):
            plan = FaultPlan.from_dict({key: data[key] for key in
                                        ("seed", "backends") if key in data})
        budget = data.get("budget")
        return cls(
            fault_plan=plan,
            retry=RetryPolicy(
                max_attempts=int(retry_data.get("max_attempts", 3)),
                backoff_base=int(retry_data.get("backoff_base", 5)),
                backoff_multiplier=int(
                    retry_data.get("backoff_multiplier", 2)
                ),
            ),
            breaker=BreakerPolicy(
                failure_threshold=int(
                    breaker_data.get("failure_threshold", 5)
                ),
                cooldown=int(breaker_data.get("cooldown", 200)),
            ),
            budget=int(budget) if budget is not None else None,
        )


class QuestionScope:
    """Per-question accounting: work spent, faults absorbed, retries."""

    def __init__(self, meter: CostMeter, budget: WorkBudget):
        self._meter = meter
        self.start_work = work_now(meter)
        self.budget = budget
        self.events: List[DegradationEvent] = []
        self.retries = 0

    @property
    def spent_work(self) -> int:
        """Work units consumed since the scope opened."""
        return work_now(self._meter) - self.start_work

    def note(self, event: DegradationEvent) -> None:
        """Record one absorbed fault."""
        self.events.append(event)


class ArmScope:
    """Per-plan-arm accounting: the arm isolation boundary.

    Opened by the plan executor around one isolated arm's guarded
    call (:meth:`ResilienceManager.arm`). It tracks the arm's work
    spend and absorbed faults, and carries the arm's **rescue
    reserve**: a work ceiling (``cap``) enforced *only once the arm has
    witnessed a fault*. A clean arm is never throttled (so fault-free
    isolated runs stay byte-identical to sequential execution); a
    faulting arm's retry/backoff spiral is cut off at the reserve so it
    cannot starve the sibling arms of the question budget.
    """

    def __init__(self, arm_id: str, meter: CostMeter,
                 cap: Optional[int] = None):
        self.arm_id = arm_id
        self._meter = meter
        self.start_work = work_now(meter)
        self.cap = cap
        self.events: List[DegradationEvent] = []
        self.witnessed_fault = False
        self.fatal = False
        #: Set when the rescue reserve cut this arm off (a budget check
        #: or a retry cancelled because backoff would overrun the cap).
        self.reserve_cut = False

    @property
    def spent_work(self) -> int:
        """Work units this arm has consumed since it opened."""
        return work_now(self._meter) - self.start_work

    def note(self, event: DegradationEvent) -> None:
        """Record one fault witnessed while this arm was active."""
        self.events.append(event)
        self.witnessed_fault = True
        if event.fatal:
            self.fatal = True

    def exhausted(self) -> bool:
        """Whether the rescue reserve bounds further work on this arm.

        True only when a cap is set, the arm has already witnessed a
        fault, and its spend strictly exceeds the cap — the three
        conditions that make cutting the arm off strictly
        budget-preserving. The comparison is strict so an arm whose
        spend sits exactly at the reserve (e.g. after its protected
        first backoff) still gets its retry.
        """
        return (self.cap is not None and self.witnessed_fault
                and self.spent_work > self.cap)


class ResilienceManager:
    """Owns the guarded-call path for one pipeline.

    One manager per :class:`~repro.qa.pipeline.HybridQAPipeline`,
    sharing the pipeline's :class:`~repro.metering.CostMeter` as its
    work clock.
    """

    def __init__(self, meter: CostMeter,
                 config: Optional[ResilienceConfig] = None):
        self._meter = meter
        self.config = config or ResilienceConfig()
        self.injector: Optional[FaultInjector] = (
            FaultInjector(self.config.fault_plan)
            if self.config.fault_plan is not None else None
        )
        self._budget = WorkBudget(self.config.budget)
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._scope: Optional[QuestionScope] = None
        self._arm: Optional[ArmScope] = None

    # ------------------------------------------------------------------
    # Scopes and accessors
    # ------------------------------------------------------------------
    @contextmanager
    def question(self) -> Iterator[QuestionScope]:
        """Open the per-question budget/degradation scope.

        Re-entrant: a nested call (comparison sub-questions) joins the
        outer scope instead of resetting the budget.
        """
        if self._scope is not None:
            yield self._scope
            return
        scope = QuestionScope(self._meter, self._budget)
        self._scope = scope
        try:
            yield scope
        finally:
            self._scope = None

    @contextmanager
    def arm(self, arm_id: str,
            cap: Optional[int] = None) -> Iterator[ArmScope]:
        """Open the per-arm isolation scope for one plan arm.

        *cap* is the arm's rescue reserve in work units (see
        :class:`ArmScope`); ``None`` leaves the arm bounded only by the
        question budget — exactly a bare run's behavior.
        A non-``None`` cap is clamped to at least the first retry's
        backoff cost so a single transient fault can always be retried:
        the reserve cuts runaway backoff *spirals*, never an arm's
        first recovery attempt (which a bare run would also make).
        Re-entrant like :meth:`question`: a nested call joins the open
        arm instead of resetting its accounting.
        """
        if self._arm is not None:
            yield self._arm
            return
        if cap is not None:
            cap = max(cap, self.config.retry.backoff_cost(1))
        scope = ArmScope(arm_id, self._meter, cap)
        self._arm = scope
        try:
            yield scope
        finally:
            self._arm = None

    def breaker(self, backend: str) -> CircuitBreaker:
        """The breaker for *backend*, created on first use."""
        breaker = self._breakers.get(backend)
        if breaker is None:
            breaker = self._breakers[backend] = CircuitBreaker(
                backend, self.config.breaker
            )
        return breaker

    def spent(self) -> int:
        """Work consumed by the active question (0 outside a scope)."""
        if self._scope is None:
            return 0
        return self._scope.spent_work

    def _note(self, event: DegradationEvent) -> None:
        if self._scope is not None:
            self._scope.note(event)
        if self._arm is not None:
            self._arm.note(event)

    # ------------------------------------------------------------------
    # The guarded-call path
    # ------------------------------------------------------------------
    def _check_budget(self, backend: str, op: str) -> None:
        scope = self._scope
        if scope is not None and scope.budget.limit is not None:
            spent = work_now(self._meter) - scope.start_work
            if scope.budget.exceeded(spent):
                raise BudgetExceeded(
                    "question work budget exhausted before %s.%s "
                    "(spent %d of %d units)"
                    % (backend, op, spent, scope.budget.limit),
                    spent=spent, limit=scope.budget.limit,
                )
        arm = self._arm
        if arm is not None and arm.exhausted():
            arm.reserve_cut = True
            raise BudgetExceeded(
                "speculative arm %r rescue reserve exhausted before "
                "%s.%s (arm spent %d of %d units)"
                % (arm.arm_id, backend, op, arm.spent_work, arm.cap),
                spent=arm.spent_work, limit=arm.cap,
            )

    def invoke(self, backend: str, op: str,
               fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """One guarded call: budget, breaker, fault injection, dispatch.

        Raises the taxonomy (:class:`~repro.errors.BudgetExceeded`,
        :class:`~repro.errors.CircuitOpenError`,
        :class:`~repro.errors.TransientError`, real backend errors);
        retry/absorption happen in :meth:`attempt`/:meth:`try_call`.
        """
        with span("resilience.call") as sp:
            sp.set("backend", backend)
            sp.set("op", op)
            self._check_budget(backend, op)
            breaker = self.breaker(backend)
            breaker.check(work_now(self._meter))
            kind = None
            if self.injector is not None:
                kind = self.injector.draw(backend, op)
            if kind == FAULT_TRANSIENT:
                sp.set("outcome", "fault:transient")
                self._note(DegradationEvent(backend, op, FAULT_TRANSIENT,
                                            "injected transient fault"))
                breaker.record_failure(work_now(self._meter))
                raise TransientError(
                    "injected transient fault on %s.%s" % (backend, op),
                    backend=backend, op=op,
                )
            if kind == FAULT_PERMANENT:
                sp.set("outcome", "fault:permanent")
                self._note(DegradationEvent(backend, op, FAULT_PERMANENT,
                                            "injected permanent fault"))
                breaker.record_failure(work_now(self._meter))
                raise StorageError(
                    "injected permanent fault on %s.%s" % (backend, op)
                )
            if kind == FAULT_SLOW:
                spec = self.injector.spec(backend)
                cost = spec.slow_cost if spec is not None else 25
                self._meter.charge(SLOW_FAULT_WORK, cost)
                self._note(DegradationEvent(
                    backend, op, FAULT_SLOW,
                    "injected slow call (+%d work units)" % cost,
                ))
                sp.set("outcome", "fault:slow")
            elif kind == FAULT_CORRUPT:
                # Noted at draw time so the injector's audit log and
                # the degradation record always reconcile, even when
                # the underlying call itself goes on to fail.
                self._note(DegradationEvent(
                    backend, op, FAULT_CORRUPT, "injected corrupt result",
                ))
            try:
                result = fn(*args, **kwargs)
                if kind == FAULT_CORRUPT:
                    sp.set("outcome", "fault:corrupt")
                    result = corrupt_result(result, backend, op)
            except ReproError:
                breaker.record_failure(work_now(self._meter))
                sp.set("outcome", "error")
                raise
            breaker.record_success(work_now(self._meter))
            if kind is None:
                sp.set("outcome", "ok")
            return result

    def attempt(self, backend: str, op: str,
                fn: Callable[[], Any]) -> Any:
        """Guarded call with retry-on-transient and work-clock backoff."""
        policy = self.config.retry
        last: Optional[TransientError] = None
        for attempt_no in range(1, policy.max_attempts + 1):
            try:
                return self.invoke(backend, op, fn)
            except TransientError as exc:
                last = exc
                if attempt_no >= policy.max_attempts:
                    break
                cost = policy.backoff_cost(attempt_no)
                arm = self._arm
                if (arm is not None and arm.cap is not None
                        and arm.spent_work + cost > arm.cap):
                    # Charging this backoff would overrun the arm's
                    # rescue reserve: cancel the remaining retries so
                    # the sibling arms keep the question budget.
                    arm.reserve_cut = True
                    break
                self._meter.charge(BACKOFF_WORK, cost)
                if self._scope is not None:
                    self._scope.retries += 1
                with span("resilience.retry") as sp:
                    sp.set("backend", backend)
                    sp.set("op", op)
                    sp.set("attempt", attempt_no)
                    sp.set("backoff_work", cost)
        raise last  # exhausted every attempt

    def try_call(
        self, backend: str, op: str, fn: Callable[[], Any],
    ) -> Tuple[Optional[Any], Optional[DegradationEvent]]:
        """Fully absorbed call: ``(result, None)`` or ``(None, event)``.

        This is the engine-boundary entry point: any
        :class:`~repro.errors.ReproError` the retries cannot beat is
        converted into a fatal :class:`~.degradation.DegradationEvent`
        so the caller can degrade instead of unwinding.
        """
        try:
            return self.attempt(backend, op, fn), None
        except ReproError as exc:
            event = DegradationEvent(
                backend, op, _classify(exc), str(exc), fatal=True,
            )
            self._note(event)
            return None, event

    def shield(self, backend: str, op: str, fn: Callable[[], Any],
               default: Any = None) -> Any:
        """Absorb any :class:`~repro.errors.ReproError` from *fn*.

        Single attempt, no retries — for optional stages (comparison
        detection, entropy sampling) where a fault should simply skip
        the stage. The absorbed fault is still recorded in the scope.
        """
        try:
            return fn()
        except ReproError as exc:
            self._note(DegradationEvent(
                backend, op, _classify(exc), str(exc), fatal=True,
            ))
            return default

    # ------------------------------------------------------------------
    # Backend wrapping
    # ------------------------------------------------------------------
    def wrap(self, name: str, target: Any,
             ops: Tuple[str, ...]) -> "ResilientBackend":
        """Wrap *target* in a :class:`ResilientBackend` guarding *ops*."""
        return ResilientBackend(self, name, target, ops)


class ResilientBackend:
    """Duck-typed proxy guarding selected methods of one backend.

    Unlisted attributes (including private ones) forward untouched, so
    the proxy drops into any call site that duck-types the original —
    the common facade the fault injector hides behind for the
    relational database, the document/text stores, retrievers and the
    SLM.
    """

    def __init__(self, manager: ResilienceManager, name: str,
                 target: Any, guarded_ops: Tuple[str, ...]):
        self._resilience_manager = manager
        self._backend_name = name
        self._target = target
        self._guarded_ops = frozenset(guarded_ops)

    @property
    def resilient_target(self) -> Any:
        """The wrapped backend object."""
        return self._target

    def __getattr__(self, attr: str) -> Any:
        value = getattr(self._target, attr)
        if attr in self._guarded_ops and callable(value):
            manager = self._resilience_manager
            name = self._backend_name

            def guarded(*args: Any, **kwargs: Any) -> Any:
                return manager.invoke(name, attr, value, *args, **kwargs)

            return guarded
        return value

    def __len__(self) -> int:
        return len(self._target)

    def __contains__(self, item: Any) -> bool:
        return item in self._target

    def __repr__(self) -> str:
        return "ResilientBackend(%r, %r)" % (
            self._backend_name, self._target,
        )


def _classify(exc: ReproError) -> str:
    """Degradation-event kind for an absorbed error."""
    if isinstance(exc, TransientError):
        return FAULT_TRANSIENT
    if isinstance(exc, BudgetExceeded):
        return "budget_exceeded"
    if isinstance(exc, CircuitOpenError):
        return "circuit_open"
    return "error"
