"""Load-spec parsing and deterministic workload generation.

A load spec is a JSON document describing a many-session workload as
*distributions*, not as a literal request list: how many asks, how the
question popularity is skewed (Zipf), how many sessions issue them,
how often writers interleave (each write is a batch barrier), and how
request bursts arrive on the work clock. :func:`generate_workload`
expands a spec against a domain's question pool into concrete
:class:`~repro.serving.scheduler.ServeRequest` streams — seeded, so
the same spec always yields the byte-identical workload.

Spec format (every key except ``name``/``domain``/``asks`` optional)::

    {
      "name": "ecommerce-steady",
      "domain": "ecommerce",
      "seed": 17,
      "asks": 96,
      "sessions": 4,
      "questions_per_kind": 2,
      "skew": 1.1,
      "burst": 8,
      "arrival": "fixed",          // or "poisson"
      "think_work": 5,             // work units between bursts
      "write_every": 24,
      "writes": [{"op": "sql", "statement": "INSERT ..."}],
      "warmup_passes": 1,
      "cache_policy": "full",
      "batch_size": 8,
      "session_budget": null,
      "max_queue_depth": null,
      "faults": null,              // resilience config document
      "tenants": {"acme": 3, "globex": 1},   // weighted tenant mix
      "tenant_registry": {"tenants": [...]}  // repro tenants format
    }

The stack keys (``domain``, ``seed``, ``faults``, ``cache_policy``,
``batch_size``, ``session_budget``, ``max_queue_depth``,
``tenant_registry``) become the spec's
:class:`~repro.bench.runner.StackConfig`, validated there — the same
validation the CLI's flags get. ``seed`` also seeds the workload.
Unknown keys and out-of-range values raise
:class:`~repro.errors.LoadGenError` at parse time, mirroring
:func:`repro.serving.workload.parse_workload`.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from ..bench.runner import STACK_KEYS, StackConfig, check_int
from ..errors import LoadGenError, ServingError
from ..serving import ServeRequest, request_from_record

#: Legal top-level spec keys (anything else fails loudly): the
#: workload's own, then the stack's.
SPEC_KEYS = (
    "name", "asks", "sessions", "questions_per_kind", "skew", "burst",
    "arrival", "think_work", "write_every", "writes", "warmup_passes",
    "tenants",
) + STACK_KEYS

_ARRIVALS = ("fixed", "poisson")


def _require_int(data: Dict[str, Any], key: str, default: int,
                 minimum: int) -> int:
    """Fetch an integer spec field, enforcing its floor."""
    value = data.get(key, default)
    check_int(key, value, minimum)
    return value


def _parse_tenant_mix(raw: Any) -> Tuple[Tuple[str, float], ...]:
    """Validate the ``tenants`` weight map into a sorted tuple."""
    if raw is None:
        return ()
    if not isinstance(raw, dict) or not raw:
        raise LoadGenError(
            "spec tenants must be a non-empty object of id -> weight")
    mix: List[Tuple[str, float]] = []
    for tenant_id, weight in raw.items():
        if not tenant_id or not isinstance(tenant_id, str):
            raise LoadGenError(
                "spec tenants keys must be non-empty tenant ids")
        if not isinstance(weight, (int, float)) \
                or isinstance(weight, bool) or weight <= 0:
            raise LoadGenError(
                "spec tenants[%r] weight must be a number > 0, got %r"
                % (tenant_id, weight))
        mix.append((tenant_id, float(weight)))
    return tuple(sorted(mix))


@dataclass(frozen=True)
class LoadSpec:
    """One parsed, validated load-generation spec."""

    name: str
    asks: int
    #: The stack the workload runs against (domain, seed, faults,
    #: cache policy, batch size, admission, tenant registry).
    stack: StackConfig = field(default_factory=StackConfig)
    sessions: int = 4
    questions_per_kind: int = 2
    skew: float = 0.0
    burst: int = 8
    arrival: str = "fixed"
    think_work: int = 0
    write_every: int = 0
    writes: Tuple[Dict[str, Any], ...] = ()
    warmup_passes: int = 1
    #: Weighted tenant mix: ((tenant_id, weight), ...) sorted by id;
    #: empty = untenanted (every ask runs as the permissive default).
    tenant_mix: Tuple[Tuple[str, float], ...] = ()

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LoadSpec":
        """Parse and validate a spec document.

        Raises :class:`~repro.errors.LoadGenError` on unknown keys,
        missing required fields, or out-of-range values.
        """
        if not isinstance(data, dict):
            raise LoadGenError("a load spec must be a JSON object")
        unknown = sorted(set(data) - set(SPEC_KEYS))
        if unknown:
            raise LoadGenError(
                "unknown spec key(s) %s; expected a subset of %s"
                % (unknown, ", ".join(SPEC_KEYS))
            )
        for key in ("name", "domain", "asks"):
            if key not in data:
                raise LoadGenError("spec is missing required key %r" % key)
        stack = StackConfig.from_dict(
            {key: data[key] for key in STACK_KEYS if key in data})
        arrival = str(data.get("arrival", "fixed"))
        if arrival not in _ARRIVALS:
            raise LoadGenError(
                "spec arrival %r unknown (expected one of %s)"
                % (arrival, ", ".join(_ARRIVALS))
            )
        skew = data.get("skew", 0.0)
        if not isinstance(skew, (int, float)) or isinstance(skew, bool) \
                or skew < 0:
            raise LoadGenError("spec skew must be a number >= 0, got %r"
                               % (skew,))
        write_every = _require_int(data, "write_every", 0, 0)
        writes_raw = data.get("writes", [])
        if not isinstance(writes_raw, list):
            raise LoadGenError("spec writes must be a list of records")
        writes: List[Dict[str, Any]] = []
        for position, record in enumerate(writes_raw, start=1):
            if not isinstance(record, dict):
                raise LoadGenError(
                    "spec write %d must be a JSON object, got %r"
                    % (position, record)
                )
            # Validate through the single serving vocabulary path; ask
            # records are not writes and would defeat the barrier role.
            try:
                request = request_from_record(
                    record, context="spec write %d" % position)
            except ServingError as exc:
                raise LoadGenError(str(exc)) from exc
            if request.op == "ask":
                raise LoadGenError(
                    "spec write %d is an 'ask'; writes must mutate a "
                    "store (sql / add_doc / add_text)" % position
                )
            writes.append(dict(record))
        if write_every > 0 and not writes:
            raise LoadGenError(
                "spec sets write_every=%d but provides no writes"
                % write_every
            )
        tenant_mix = _parse_tenant_mix(data.get("tenants"))
        if stack.tenant_registry is not None:
            registered = set(stack.tenants.tenant_ids())
            unknown_tenants = sorted(
                tenant_id for tenant_id, _weight in tenant_mix
                if tenant_id not in registered
            )
            if unknown_tenants:
                raise LoadGenError(
                    "spec tenants mix names unregistered tenant(s) %s"
                    % ", ".join(unknown_tenants)
                )
        elif tenant_mix and any(t != "default" for t, _ in tenant_mix):
            raise LoadGenError(
                "spec declares a tenants mix but no tenant_registry; "
                "embed the registry document so the run fails closed "
                "on unknown tenants"
            )
        return cls(
            name=str(data["name"]),
            asks=_require_int(data, "asks", 0, 1),
            stack=stack,
            sessions=_require_int(data, "sessions", 4, 1),
            questions_per_kind=_require_int(
                data, "questions_per_kind", 2, 1
            ),
            skew=float(skew),
            burst=_require_int(data, "burst", 8, 1),
            arrival=arrival,
            think_work=_require_int(data, "think_work", 0, 0),
            write_every=write_every,
            writes=tuple(writes),
            warmup_passes=_require_int(data, "warmup_passes", 1, 0),
            tenant_mix=tenant_mix,
        )

    @classmethod
    def from_json(cls, text: str) -> "LoadSpec":
        """Parse a spec from JSON text."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise LoadGenError("load spec is not valid JSON: %s"
                               % exc) from exc
        return cls.from_dict(data)

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-ready echo (stable across runs)."""
        stack = self.stack
        return {
            "name": self.name,
            "domain": stack.domain,
            "seed": stack.seed,
            "asks": self.asks,
            "sessions": self.sessions,
            "questions_per_kind": self.questions_per_kind,
            "skew": self.skew,
            "burst": self.burst,
            "arrival": self.arrival,
            "think_work": self.think_work,
            "write_every": self.write_every,
            "writes": [dict(record) for record in self.writes],
            "warmup_passes": self.warmup_passes,
            "cache_policy": stack.cache_policy,
            "batch_size": stack.batch_size,
            "session_budget": stack.session_budget,
            "max_queue_depth": stack.max_queue_depth,
            "faults": dict(stack.faults) if stack.faults else None,
            "tenants": ({tenant_id: weight
                         for tenant_id, weight in self.tenant_mix}
                        if self.tenant_mix else None),
            "tenant_registry": (dict(stack.tenant_registry)
                                if stack.tenant_registry else None),
        }


@dataclass(frozen=True)
class Burst:
    """One arrival group: a work-clock gap, then its requests.

    ``gap`` is charged to the pipeline's CostMeter *before* the burst
    is served — think time modelled on the work clock, so arrival
    schedules replay byte-for-byte on any machine.
    """

    gap: int
    requests: Tuple[ServeRequest, ...] = field(default_factory=tuple)


def zipf_weights(n: int, skew: float) -> List[float]:
    """Unnormalized Zipf weights for ranks 1..n (skew 0 = uniform)."""
    if n < 1:
        raise LoadGenError("zipf_weights needs at least one rank")
    return [1.0 / (rank ** skew) for rank in range(1, n + 1)]


def _draw(rng: random.Random, cumulative: Sequence[float]) -> int:
    """Inverse-CDF draw: index of the first cumulative weight >= u."""
    u = rng.random() * cumulative[-1]
    lo, hi = 0, len(cumulative) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if cumulative[mid] < u:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _poisson(rng: random.Random, mean: int) -> int:
    """Seeded Poisson draw (Knuth), for arrival think-time gaps."""
    if mean <= 0:
        return 0
    threshold = math.exp(-float(mean))
    count, product = 0, 1.0
    while True:
        product *= rng.random()
        if product <= threshold:
            return count
        count += 1


def generate_workload(spec: LoadSpec,
                      questions: Sequence[str]) -> List[Burst]:
    """Expand *spec* against a question pool into arrival bursts.

    Questions are drawn by Zipf rank over the pool's given order (rank
    1 = hottest), sessions uniformly; with a ``tenants`` mix each ask
    additionally draws its tenant by weight (same seeded stream, so
    the interleaving is reproducible). After every ``write_every``
    asks the next write template (cycled) is appended, acting as a
    batch barrier when served. Entirely driven by one
    ``random.Random(spec.stack.seed)`` stream — the same spec and pool
    always produce the identical burst list.
    """
    if not questions:
        raise LoadGenError("cannot generate a workload from an empty "
                           "question pool")
    rng = random.Random(spec.stack.seed)
    weights = zipf_weights(len(questions), spec.skew)
    cumulative: List[float] = []
    running = 0.0
    for weight in weights:
        running += weight
        cumulative.append(running)
    tenant_ids: List[str] = []
    tenant_cumulative: List[float] = []
    running = 0.0
    for tenant_id, weight in spec.tenant_mix:
        tenant_ids.append(tenant_id)
        running += weight
        tenant_cumulative.append(running)
    session_names = ["s%02d" % i for i in range(spec.sessions)]
    requests: List[ServeRequest] = []
    write_index = 0
    for ask_index in range(spec.asks):
        question = questions[_draw(rng, cumulative)]
        session = session_names[rng.randrange(spec.sessions)]
        tenant = (tenant_ids[_draw(rng, tenant_cumulative)]
                  if tenant_ids else "default")
        requests.append(ServeRequest(
            op="ask", payload={"question": question}, session=session,
            tenant=tenant,
        ))
        if spec.write_every and (ask_index + 1) % spec.write_every == 0:
            record = spec.writes[write_index % len(spec.writes)]
            write_index += 1
            requests.append(request_from_record(
                dict(record), context="spec write %d" % write_index,
            ))
    bursts: List[Burst] = []
    for start in range(0, len(requests), spec.burst):
        chunk = tuple(requests[start:start + spec.burst])
        if spec.arrival == "poisson":
            gap = _poisson(rng, spec.think_work)
        else:
            gap = spec.think_work
        bursts.append(Burst(gap=gap, requests=chunk))
    return bursts
