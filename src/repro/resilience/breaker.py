"""Per-backend circuit breakers on the deterministic work clock.

A breaker protects the pipeline from hammering a failing backend:
after ``failure_threshold`` consecutive failures it *opens* and
rejects calls outright (:class:`~repro.errors.CircuitOpenError`) until
``cooldown`` work units elapse on the meter clock, then *half-opens*
to let one probe call through — probe success closes the breaker,
probe failure re-opens it for another cooldown.

Every state transition is appended to :attr:`CircuitBreaker.transitions`
and emits a zero-duration ``resilience.breaker`` span carrying
backend/from/to attributes, so transitions are visible in
``cli --trace`` output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..errors import CircuitOpenError
from ..obs import span

STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerPolicy:
    """Thresholds for one circuit breaker.

    ``failure_threshold`` consecutive failures open the breaker;
    ``cooldown`` is the work-unit interval before a half-open probe is
    allowed.
    """

    failure_threshold: int = 5
    cooldown: int = 200

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown < 0:
            raise ValueError("cooldown must be non-negative")


class CircuitBreaker:
    """Closed / open / half-open breaker for one named backend."""

    def __init__(self, name: str, policy: BreakerPolicy = BreakerPolicy()):
        self.name = name
        self.policy = policy
        self._state = STATE_CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0
        #: (from_state, to_state, work_clock) audit log.
        self.transitions: List[Tuple[str, str, int]] = []

    @property
    def state(self) -> str:
        """Current state name (no clock-driven transition applied)."""
        return self._state

    def _transition(self, to_state: str, now: int) -> None:
        from_state = self._state
        self._state = to_state
        self.transitions.append((from_state, to_state, now))
        with span("resilience.breaker") as sp:
            sp.set("backend", self.name)
            sp.set("from", from_state)
            sp.set("to", to_state)
            sp.set("work_clock", now)

    def check(self, now: int) -> None:
        """Gate one call at work-clock *now*.

        Raises :class:`~repro.errors.CircuitOpenError` while open and
        still cooling down; transitions to half-open (and admits the
        probe) once the cooldown has elapsed.
        """
        if self._state == STATE_OPEN:
            if now - self._opened_at >= self.policy.cooldown:
                self._transition(STATE_HALF_OPEN, now)
                return
            raise CircuitOpenError(
                "circuit for backend %r is open (%d more work units of "
                "cooldown)" % (
                    self.name,
                    self.policy.cooldown - (now - self._opened_at),
                ),
                backend=self.name,
            )

    def record_success(self, now: int) -> None:
        """Note a successful call; closes a half-open breaker."""
        self._consecutive_failures = 0
        if self._state == STATE_HALF_OPEN:
            self._transition(STATE_CLOSED, now)

    def record_failure(self, now: int) -> None:
        """Note a failed call; may open the breaker."""
        self._consecutive_failures += 1
        if self._state == STATE_HALF_OPEN:
            self._opened_at = now
            self._transition(STATE_OPEN, now)
        elif (self._state == STATE_CLOSED and self._consecutive_failures
                >= self.policy.failure_threshold):
            self._opened_at = now
            self._transition(STATE_OPEN, now)
