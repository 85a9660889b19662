"""Deterministic fault injection for chaos-testing the pipeline.

A :class:`FaultPlan` declares, per backend name, how often guarded
calls fault and with which failure modes. A :class:`FaultInjector`
executes the plan with one seeded :class:`random.Random` stream per
backend, so a given ``(seed, plan)`` pair reproduces the exact same
fault sequence on every machine — chaos runs are replayable byte for
byte.

Fault kinds:

* ``transient`` — the call raises :class:`~repro.errors.TransientError`
  (retryable);
* ``permanent`` — the call raises :class:`~repro.errors.StorageError`
  (non-retryable, as if the backend rejected the request);
* ``slow`` — the call succeeds but charges ``slow_cost`` extra work
  units to the meter first (an expensive call on the deterministic
  work clock — this is how chaos runs exercise budget deadlines);
* ``corrupt`` — the call succeeds but its result is deterministically
  mangled (see :func:`corrupt_result`); results whose type cannot be
  mangled shape-preservingly are discarded as a transient failure,
  modeling an integrity check that rejects the payload.
"""

from __future__ import annotations

import json
import random
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import TransientError

FAULT_TRANSIENT = "transient"
FAULT_PERMANENT = "permanent"
FAULT_SLOW = "slow"
FAULT_CORRUPT = "corrupt"

FAULT_KINDS = (FAULT_TRANSIENT, FAULT_PERMANENT, FAULT_SLOW, FAULT_CORRUPT)

# Equal-weight default mix over all four kinds.
_DEFAULT_KIND_WEIGHTS = tuple((kind, 1.0) for kind in FAULT_KINDS)

#: The backends a fault document may name: the five the pipeline wraps
#: in resilience proxies, the two engine arms the plan executor
#: guards, and ``shard:<i>`` for a sharded stack.
FAULT_BACKENDS = ("relational", "document", "textstore", "retriever",
                  "slm", "structured", "text")


def check_keys(where: str, data: Any,
               allowed: Tuple[str, ...]) -> Dict[str, Any]:
    """*data* itself, once it is an object with only *allowed* keys
    (``ValueError`` naming *where* otherwise)."""
    if not isinstance(data, dict):
        raise ValueError("%s must be an object, got %r" % (where, data))
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ValueError("%s has unknown key(s) %s; expected a subset of %s"
                         % (where, ", ".join(unknown),
                            ", ".join(allowed)))
    return data


def shard_index(backend: str) -> Optional[int]:
    """*i* for a ``shard:<i>`` backend name, else None."""
    prefix, _, index = backend.partition(":")
    if prefix == "shard" and index.isdigit():
        return int(index)
    return None


@dataclass(frozen=True)
class BackendFaults:
    """Fault configuration for one named backend.

    ``rate`` is the per-guarded-call fault probability; ``kinds`` maps
    fault kind to relative weight; ``slow_cost`` is the extra work (in
    :class:`~repro.metering.CostMeter` units) a ``slow`` fault charges.
    """

    rate: float = 0.0
    kinds: Tuple[Tuple[str, float], ...] = _DEFAULT_KIND_WEIGHTS
    slow_cost: int = 25

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("fault rate must be in [0, 1]")
        for kind, weight in self.kinds:
            if kind not in FAULT_KINDS:
                raise ValueError("unknown fault kind %r" % kind)
            if weight < 0:
                raise ValueError("fault weights must be non-negative")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation."""
        return {
            "rate": self.rate,
            "kinds": {kind: weight for kind, weight in self.kinds},
            "slow_cost": self.slow_cost,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BackendFaults":
        """Inverse of :meth:`to_dict`; missing keys use defaults, an
        unknown key or fault kind raises ``ValueError``."""
        check_keys("backend", data, ("rate", "kinds", "slow_cost"))
        kinds = data.get("kinds")
        if kinds:
            check_keys("kinds", kinds, FAULT_KINDS)
        return cls(
            rate=float(data.get("rate", 0.0)),
            kinds=tuple(sorted(kinds.items())) if kinds
            else _DEFAULT_KIND_WEIGHTS,
            slow_cost=int(data.get("slow_cost", 25)),
        )


@dataclass
class FaultPlan:
    """A seeded, per-backend fault configuration.

    The JSON form (see ``docs/resilience.md``) is what the CLI's
    ``--faults plan.json`` flag loads::

        {"seed": 23,
         "backends": {"relational": {"rate": 0.2},
                      "retriever":  {"rate": 0.1,
                                     "kinds": {"transient": 1.0}}}}
    """

    seed: int = 0
    backends: Dict[str, BackendFaults] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation."""
        return {
            "seed": self.seed,
            "backends": {
                name: spec.to_dict()
                for name, spec in sorted(self.backends.items())
            },
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize as JSON text."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        """Inverse of :meth:`to_dict`; raises ``ValueError`` on an
        unknown key or a backend no guard draws for."""
        check_keys("fault plan", data, ("seed", "backends"))
        specs = data.get("backends") or {}
        if not isinstance(specs, dict):
            raise ValueError("backends must be an object, got %r"
                             % (specs,))
        backends = {}
        for name, spec in specs.items():
            if name not in FAULT_BACKENDS and shard_index(name) is None:
                raise ValueError(
                    "backends: no backend %r; expected one of %s or "
                    "shard:<i>" % (name, ", ".join(FAULT_BACKENDS)))
            try:
                backends[name] = BackendFaults.from_dict(spec)
            except ValueError as exc:
                raise ValueError("backends.%s: %s" % (name, exc)) from exc
        return cls(seed=int(data.get("seed", 0)), backends=backends)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse the JSON form."""
        return cls.from_dict(json.loads(text))

    @classmethod
    def uniform(cls, backends: Tuple[str, ...], rate: float,
                seed: int = 0, slow_cost: int = 25) -> "FaultPlan":
        """A plan faulting every listed backend at the same *rate*."""
        return cls(seed=seed, backends={
            name: BackendFaults(rate=rate, slow_cost=slow_cost)
            for name in backends
        })


@dataclass(frozen=True)
class InjectedFault:
    """One fault the injector fired (its replayable audit log entry)."""

    backend: str
    op: str
    kind: str
    index: int  # 0-based guarded-call count on this backend


class FaultInjector:
    """Draws faults from a :class:`FaultPlan` with per-backend RNGs.

    Each backend gets its own :class:`random.Random` seeded from
    ``(plan.seed, backend name)`` via CRC32, so adding a backend to the
    plan never perturbs another backend's fault sequence.
    """

    def __init__(self, plan: FaultPlan):
        self._plan = plan
        self._rngs: Dict[str, random.Random] = {}
        self._calls: Dict[str, int] = {}
        self.log: List[InjectedFault] = []

    @property
    def plan(self) -> FaultPlan:
        """The plan this injector executes."""
        return self._plan

    def spec(self, backend: str) -> Optional[BackendFaults]:
        """The fault spec for *backend* (None when unlisted)."""
        return self._plan.backends.get(backend)

    def _rng(self, backend: str) -> random.Random:
        rng = self._rngs.get(backend)
        if rng is None:
            derived = (self._plan.seed * 1000003
                       + zlib.crc32(backend.encode("utf-8"))) & 0xFFFFFFFF
            rng = self._rngs[backend] = random.Random(derived)
        return rng

    def draw(self, backend: str, op: str) -> Optional[str]:
        """Roll the dice for one guarded call; returns a fault kind or None.

        Every guarded call on a planned backend consumes exactly one
        uniform draw whether or not it faults, so lower fault rates
        fault on a subset of the call positions higher rates do.
        """
        spec = self._plan.backends.get(backend)
        if spec is None or spec.rate <= 0.0:
            return None
        index = self._calls.get(backend, 0)
        self._calls[backend] = index + 1
        rng = self._rng(backend)
        roll = rng.random()
        if roll >= spec.rate:
            return None
        kind = self._pick_kind(spec, roll / spec.rate)
        self.log.append(InjectedFault(backend, op, kind, index))
        return kind

    @staticmethod
    def _pick_kind(spec: BackendFaults, fraction: float) -> str:
        # Reuse the (rescaled) faulting roll to pick the kind, so one
        # guarded call always costs exactly one RNG draw.
        total = sum(weight for _, weight in spec.kinds)
        if total <= 0.0:
            return FAULT_TRANSIENT
        threshold = fraction * total
        running = 0.0
        for kind, weight in spec.kinds:
            running += weight
            if threshold < running:
                return kind
        return spec.kinds[-1][0]


def corrupt_result(value: Any, backend: str = "?",
                   op: str = "?") -> Any:
    """Deterministically mangle *value*, preserving its shape.

    Scalars flip (numbers negate, strings reverse, booleans invert);
    lists and tuples reverse their element order (scores end up
    attached to the wrong ranks); relational result sets (duck-typed on
    ``columns``/``rows``) mangle every cell. Types with no safe
    mangling raise :class:`~repro.errors.TransientError` — the result
    is discarded as failing an integrity check.
    """
    if value is None or isinstance(value, bool):
        return not value if isinstance(value, bool) else value
    if isinstance(value, (int, float)):
        return -value if value else type(value)(1)
    if isinstance(value, str):
        return value[::-1]
    if isinstance(value, (list, tuple)):
        return type(value)(reversed(value))
    if isinstance(value, dict):
        return {key: corrupt_result(item, backend, op)
                for key, item in value.items()}
    columns = getattr(value, "columns", None)
    rows = getattr(value, "rows", None)
    if columns is not None and rows is not None:
        return type(value)(
            list(columns),
            [tuple(corrupt_result(cell, backend, op) for cell in row)
             for row in rows],
        )
    raise TransientError(
        "corrupt %s result discarded by integrity check"
        % type(value).__name__, backend=backend, op=op,
    )
