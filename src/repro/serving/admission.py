"""Admission control: per-session work budgets and load shedding.

The serving layer's protection against one client starving the rest.
Two deterministic limits, both measured on the CostMeter work clock
(never wall time, matching :mod:`repro.resilience`):

* **session budget** — total work units one session may consume across
  its whole lifetime on the server;
* **queue depth** — how many questions may wait between two write
  barriers before later arrivals are shed.

Shedding never raises: a shed request receives a typed abstention
through the same degradation vocabulary the resilience layer uses
(:class:`~repro.resilience.DegradationEvent` +
:func:`~repro.resilience.summarize`), so downstream consumers handle
overload and backend failure with one code path.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from ..errors import TenancyError
from ..qa.answer import Answer
from ..resilience import DegradationEvent, summarize
from ..tenancy import DEFAULT_TENANT, TenantRegistry, WorkClockBucket, \
    bucket_for

#: System name stamped on shed abstentions.
ANSWER_SYSTEM_SERVING = "serving"

SHED_BUDGET = "session_budget"
SHED_QUEUE = "queue_depth"
#: A tenant's work-clock token bucket ran dry.
SHED_TENANT_QUOTA = "tenant_quota"
#: The request named a tenant the registry does not know (fail closed).
SHED_TENANT_UNKNOWN = "tenant_unknown"


class AdmissionPolicy:
    """Limits an :class:`AdmissionController` enforces (None = off)."""

    def __init__(self, session_budget: Optional[int] = None,
                 max_queue_depth: Optional[int] = None):
        if session_budget is not None and session_budget < 1:
            raise ValueError("session_budget must be positive")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be positive")
        self.session_budget = session_budget
        self.max_queue_depth = max_queue_depth


def shed_answer(kind: str, detail: str) -> Answer:
    """A typed-abstention Answer for one shed request.

    Mirrors the pipeline's degradation metadata exactly, so callers
    cannot tell load shedding apart from any other graceful
    degradation except by the recorded event kind.
    """
    event = DegradationEvent("serving", "admit", kind, detail, fatal=True)
    return Answer.abstain(ANSWER_SYSTEM_SERVING, reason=detail).with_metadata(
        degradation=summarize([event], abstained=True), degraded=True,
        shed=True,
    )


class AdmissionController:
    """Tracks per-session spend and applies an :class:`AdmissionPolicy`.

    It also enforces the *registry*'s per-tenant work-clock quotas:
    each tenant whose context declares a quota gets one deterministic
    :class:`~repro.tenancy.WorkClockBucket`, refilled on the work clock
    *clock* reads (the serving layer passes ``work_now(meter)``) and
    full at construction. A dry bucket sheds that tenant's requests as
    typed abstentions while every other tenant admits normally — one
    greedy tenant can exhaust only its own bucket, never the cluster.
    """

    def __init__(self, policy: Optional[AdmissionPolicy],
                 registry: TenantRegistry, clock: Callable[[], int]):
        self._policy = policy or AdmissionPolicy()
        self._spent: Dict[str, int] = {}
        self._shed_count = 0
        self._registry = registry
        self._clock = clock
        now = clock()
        self._buckets: Dict[str, Optional[WorkClockBucket]] = {
            context.tenant_id: bucket_for(
                context.quota_capacity, context.quota_refill, now=now)
            for context in registry.contexts
        }
        self._tenant_requests: Dict[str, int] = {}
        self._tenant_shed: Dict[str, int] = {}

    @property
    def policy(self) -> AdmissionPolicy:
        """The enforced limits."""
        return self._policy

    def admit(self, session: str,
              tenant: str = DEFAULT_TENANT) -> Optional[Answer]:
        """None when the request may proceed, else its shed abstention.

        Session budgets are checked first, then the tenant's quota
        bucket. A tenant the registry does not know is shed, never
        silently admitted.
        """
        self._tenant_requests[tenant] = \
            self._tenant_requests.get(tenant, 0) + 1
        limit = self._policy.session_budget
        if limit is not None:
            spent = self._spent.get(session, 0)
            if spent >= limit:
                self._shed_count += 1
                self._tenant_shed[tenant] = \
                    self._tenant_shed.get(tenant, 0) + 1
                return shed_answer(
                    SHED_BUDGET,
                    "session %r exhausted its work budget (%d of %d "
                    "units)" % (session, spent, limit),
                )
        try:
            self._registry.context(tenant)
        except TenancyError as exc:
            self._shed_count += 1
            self._tenant_shed[tenant] = \
                self._tenant_shed.get(tenant, 0) + 1
            return shed_answer(SHED_TENANT_UNKNOWN, str(exc))
        bucket = self._buckets.get(tenant)
        if bucket is not None and not bucket.admit(self._clock()):
            self._shed_count += 1
            self._tenant_shed[tenant] = \
                self._tenant_shed.get(tenant, 0) + 1
            return shed_answer(
                SHED_TENANT_QUOTA,
                "tenant %r exhausted its work-clock quota "
                "(balance %.1f of %d)" % (
                    tenant, bucket.tokens, bucket.capacity),
            )
        return None

    def over_depth(self, depth: int) -> Optional[Answer]:
        """None when a queue of *depth* may grow, else a shed abstention."""
        limit = self._policy.max_queue_depth
        if limit is None or depth < limit:
            return None
        self._shed_count += 1
        return shed_answer(
            SHED_QUEUE,
            "queue depth %d at limit %d; request shed" % (depth, limit),
        )

    def charge(self, session: str, work: int,
               tenant: str = DEFAULT_TENANT) -> None:
        """Record *work* units against the session budget and tenant
        quota bucket (post-paid: debt is settled by later refill)."""
        if work > 0:
            self._spent[session] = self._spent.get(session, 0) + work
            bucket = self._buckets.get(tenant)
            if bucket is not None:
                bucket.charge(self._clock(), work)

    def spent(self, session: str) -> int:
        """Work units *session* has consumed so far."""
        return self._spent.get(session, 0)

    def tenant_stats(self) -> Dict[str, Dict[str, Any]]:
        """Per-tenant admission accounting (requests, shed, quota)."""
        out: Dict[str, Dict[str, Any]] = {}
        for tenant in sorted(set(self._tenant_requests)
                             | set(self._buckets)):
            record: Dict[str, Any] = {
                "requests": self._tenant_requests.get(tenant, 0),
                "shed": self._tenant_shed.get(tenant, 0),
            }
            bucket = self._buckets.get(tenant)
            if bucket is not None:
                record["quota_spent"] = bucket.spent
                record["quota_balance"] = round(bucket.tokens, 3)
                record["quota_capacity"] = bucket.capacity
            out[tenant] = record
        return out

    def stats(self) -> Dict[str, Any]:
        """Spend per session plus the shed count.

        Per-tenant accounting lives in :meth:`tenant_stats`; the server
        surfaces it as its own top-level stats section.
        """
        return {
            "sessions": dict(sorted(self._spent.items())),
            "shed": self._shed_count,
        }
