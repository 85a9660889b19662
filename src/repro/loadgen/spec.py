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
      "shards": 1,                 // entity-keyed store shards (>= 1)
      "tenants": {"acme": 3, "globex": 1},   // weighted tenant mix
      "tenant_registry": {"tenants": [...]}  // repro tenants format
    }

Unknown keys and out-of-range values raise
:class:`~repro.errors.LoadGenError` at parse time, mirroring
:func:`repro.serving.workload.parse_workload`.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import LoadGenError, ServingError
from ..serving import ServeRequest, request_from_record

#: Legal top-level spec keys (anything else fails loudly).
SPEC_KEYS = (
    "name", "domain", "seed", "asks", "sessions", "questions_per_kind",
    "skew", "burst", "arrival", "think_work", "write_every", "writes",
    "warmup_passes", "cache_policy", "batch_size", "session_budget",
    "max_queue_depth", "faults", "shards", "tenants",
    "tenant_registry",
)

_DOMAINS = ("ecommerce", "healthcare")
_ARRIVALS = ("fixed", "poisson")


def _require_int(data: Dict[str, Any], key: str, default: int,
                 minimum: int) -> int:
    """Fetch an integer spec field, enforcing its floor."""
    value = data.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise LoadGenError("spec key %r must be an integer, got %r"
                           % (key, value))
    if value < minimum:
        raise LoadGenError("spec key %r must be >= %d, got %d"
                           % (key, minimum, value))
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
    domain: str
    asks: int
    seed: int = 17
    sessions: int = 4
    questions_per_kind: int = 2
    skew: float = 0.0
    burst: int = 8
    arrival: str = "fixed"
    think_work: int = 0
    write_every: int = 0
    writes: Tuple[Dict[str, Any], ...] = ()
    warmup_passes: int = 1
    cache_policy: str = "full"
    batch_size: int = 8
    session_budget: Optional[int] = None
    max_queue_depth: Optional[int] = None
    faults: Optional[Dict[str, Any]] = None
    shards: int = 1
    #: Weighted tenant mix: ((tenant_id, weight), ...) sorted by id;
    #: empty = untenanted (every ask runs as the permissive default).
    tenant_mix: Tuple[Tuple[str, float], ...] = ()
    #: Embedded tenant registry document (the ``repro tenants`` format)
    #: so a multi-tenant benchmark spec is fully self-describing.
    tenant_registry: Optional[Dict[str, Any]] = None

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
        domain = str(data["domain"])
        if domain not in _DOMAINS:
            raise LoadGenError(
                "spec domain %r unknown (expected one of %s)"
                % (domain, ", ".join(_DOMAINS))
            )
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
        budget = data.get("session_budget")
        if budget is not None:
            budget = _require_int(data, "session_budget", 0, 1)
        depth = data.get("max_queue_depth")
        if depth is not None:
            depth = _require_int(data, "max_queue_depth", 0, 1)
        faults = data.get("faults")
        if faults is not None and not isinstance(faults, dict):
            raise LoadGenError(
                "spec faults must be a resilience config object"
            )
        tenant_mix = _parse_tenant_mix(data.get("tenants"))
        registry_doc = data.get("tenant_registry")
        if registry_doc is not None:
            from ..tenancy import validate_registry_data

            findings = validate_registry_data(registry_doc)
            if findings:
                raise LoadGenError(
                    "spec tenant_registry is invalid: %s"
                    % "; ".join(findings)
                )
            registered = {
                str(record.get("id"))
                for record in registry_doc.get("tenants", [])
            } | {"default"}
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
            domain=domain,
            asks=_require_int(data, "asks", 0, 1),
            seed=_require_int(data, "seed", 17, 0),
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
            cache_policy=str(data.get("cache_policy", "full")),
            batch_size=_require_int(data, "batch_size", 8, 1),
            session_budget=budget,
            max_queue_depth=depth,
            faults=dict(faults) if faults is not None else None,
            shards=_require_int(data, "shards", 1, 1),
            tenant_mix=tenant_mix,
            tenant_registry=(dict(registry_doc)
                             if registry_doc is not None else None),
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

    @classmethod
    def load(cls, path: str) -> "LoadSpec":
        """Read and parse a spec file."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-ready echo (stable across runs)."""
        return {
            "name": self.name,
            "domain": self.domain,
            "seed": self.seed,
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
            "cache_policy": self.cache_policy,
            "batch_size": self.batch_size,
            "session_budget": self.session_budget,
            "max_queue_depth": self.max_queue_depth,
            "faults": dict(self.faults) if self.faults else None,
            "shards": self.shards,
            "tenants": ({tenant_id: weight
                         for tenant_id, weight in self.tenant_mix}
                        if self.tenant_mix else None),
            "tenant_registry": (dict(self.tenant_registry)
                                if self.tenant_registry else None),
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
    ``random.Random(spec.seed)`` stream — the same spec and pool
    always produce the identical burst list.
    """
    if not questions:
        raise LoadGenError("cannot generate a workload from an empty "
                           "question pool")
    rng = random.Random(spec.seed)
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
