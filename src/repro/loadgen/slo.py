"""Declarative SLO specs and deterministic gate evaluation.

An SLO spec is a small JSON document of named gates over the load
harness's work-clock measurements — percentile latency ceilings,
error/abstention-rate ceilings, a warm cache-hit floor::

    {
      "name": "ecommerce-steady",
      "p50_work_max": 2000,
      "p95_work_max": 9000,
      "error_rate_max": 0.0,
      "abstain_rate_max": 0.15,
      "answer_hit_rate_min": 0.5
    }

Every metric a gate reads is deterministic (CostMeter work units and
exact counts, never wall time), so a gate verdict is a pure function
of (spec, seed) — the property that lets CI *fail the build* when a
future change makes the hot path slower. Percentiles are exact
nearest-rank over the full per-request sample
(:func:`repro.loadgen.harness.nearest_rank`), not estimates.

Unknown keys and negative thresholds raise
:class:`~repro.errors.LoadGenError` at parse time, mirroring
:func:`repro.serving.workload.parse_workload`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..errors import LoadGenError

#: gate key -> (measurement key, direction, value kind).
#: direction "max" gates pass when actual <= limit, "min" when >=.
#: kind "work" limits are non-negative work units; "rate" limits live
#: in [0, 1].
GATES: Dict[str, Tuple[str, str, str]] = {
    "p50_work_max": ("work_p50", "max", "work"),
    "p95_work_max": ("work_p95", "max", "work"),
    "p99_work_max": ("work_p99", "max", "work"),
    "total_work_max": ("total_work", "max", "work"),
    "error_rate_max": ("error_rate", "max", "rate"),
    "abstain_rate_max": ("abstain_rate", "max", "rate"),
    "shed_rate_max": ("shed_rate", "max", "rate"),
    # The isolation proof gate: a greedy tenant's tier *requires*
    # shedding (its quota provably bit) while the quiet tenant's tier
    # pins shed_rate_max at 0 — both pass, demonstrating containment.
    "shed_rate_min": ("shed_rate", "min", "rate"),
    "answer_hit_rate_min": ("answer_hit_rate", "min", "rate"),
    "plan_hit_rate_min": ("plan_hit_rate", "min", "rate"),
}


def _parse_gates(data: Dict[str, Any],
                 context: str) -> Tuple[Tuple[str, float], ...]:
    """Validate one gate dict (top level or one tenant's tier)."""
    gates: List[Tuple[str, float]] = []
    for key in sorted(GATES):
        if key not in data:
            continue
        value = data[key]
        if not isinstance(value, (int, float)) \
                or isinstance(value, bool):
            raise LoadGenError(
                "%s gate %r must be a number, got %r"
                % (context, key, value)
            )
        value = float(value)
        if value < 0:
            raise LoadGenError(
                "%s gate %r must be non-negative, got %r"
                % (context, key, value)
            )
        if GATES[key][2] == "rate" and value > 1.0:
            raise LoadGenError(
                "%s gate %r is a rate and must be within [0, 1], "
                "got %r" % (context, key, value)
            )
        gates.append((key, value))
    return tuple(gates)


@dataclass(frozen=True)
class SLOSpec:
    """One parsed, validated SLO document: named gate thresholds.

    ``tenant_gates`` holds per-tenant SLO *tiers*: each entry gates the
    harness's ``tenant.<id>.*`` measurements with the same gate
    vocabulary, so one document can simultaneously demand that a
    greedy tenant **was** shed (``shed_rate_min``) and that a quiet
    tenant never was (``shed_rate_max: 0``).
    """

    name: str
    gates: Tuple[Tuple[str, float], ...]
    tenant_gates: Tuple[Tuple[str, Tuple[Tuple[str, float], ...]],
                        ...] = ()

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SLOSpec":
        """Parse and validate an SLO document.

        Raises :class:`~repro.errors.LoadGenError` on unknown gate
        keys, non-numeric or negative thresholds, rates outside
        [0, 1], or a spec with no gates at all.
        """
        if not isinstance(data, dict):
            raise LoadGenError("an SLO spec must be a JSON object")
        unknown = sorted(set(data) - set(GATES) - {"name", "tenants"})
        if unknown:
            raise LoadGenError(
                "unknown SLO key(s) %s; expected 'name', 'tenants' or "
                "gates %s" % (unknown, ", ".join(sorted(GATES)))
            )
        gates = _parse_gates(data, "SLO")
        tenants_raw = data.get("tenants", {})
        if not isinstance(tenants_raw, dict):
            raise LoadGenError(
                "SLO 'tenants' must be an object of id -> gate tiers")
        tenant_gates: List[Tuple[str, Tuple[Tuple[str, float], ...]]] = []
        for tenant_id in sorted(tenants_raw):
            tier = tenants_raw[tenant_id]
            if not isinstance(tier, dict):
                raise LoadGenError(
                    "SLO tenants[%r] must be a gate object" % tenant_id)
            tier_unknown = sorted(set(tier) - set(GATES))
            if tier_unknown:
                raise LoadGenError(
                    "unknown SLO key(s) %s in tenants[%r]; expected "
                    "gates %s" % (tier_unknown, tenant_id,
                                  ", ".join(sorted(GATES)))
                )
            parsed = _parse_gates(tier, "SLO tenants[%r]" % tenant_id)
            if not parsed:
                raise LoadGenError(
                    "SLO tenants[%r] declares no gates" % tenant_id)
            tenant_gates.append((tenant_id, parsed))
        if not gates and not tenant_gates:
            raise LoadGenError(
                "SLO spec declares no gates; add at least one of %s"
                % ", ".join(sorted(GATES))
            )
        return cls(name=str(data.get("name", "slo")),
                   gates=tuple(gates),
                   tenant_gates=tuple(tenant_gates))

    @classmethod
    def from_json(cls, text: str) -> "SLOSpec":
        """Parse an SLO spec from JSON text."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise LoadGenError("SLO spec is not valid JSON: %s"
                               % exc) from exc
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str) -> "SLOSpec":
        """Read and parse an SLO spec file."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-ready echo (stable across runs)."""
        out: Dict[str, Any] = {"name": self.name}
        out.update({key: value for key, value in self.gates})
        if self.tenant_gates:
            out["tenants"] = {
                tenant_id: {key: value for key, value in tier}
                for tenant_id, tier in self.tenant_gates
            }
        return out


@dataclass(frozen=True)
class GateResult:
    """One evaluated gate: the limit, the measured value, the verdict."""

    gate: str
    metric: str
    direction: str
    limit: float
    actual: float
    passed: bool

    def render(self) -> str:
        """One aligned text line, e.g. for the CLI verdict table."""
        comparator = "<=" if self.direction == "max" else ">="
        return "%-22s %-16s %10g %s %-10g %s" % (
            self.gate, self.metric, self.actual, comparator, self.limit,
            "PASS" if self.passed else "FAIL",
        )


@dataclass(frozen=True)
class SLOReport:
    """Every gate verdict for one load run."""

    slo: SLOSpec
    results: Tuple[GateResult, ...]

    @property
    def passed(self) -> bool:
        """True when every gate passed."""
        return all(result.passed for result in self.results)

    def failures(self) -> List[GateResult]:
        """The gates that failed, in declaration order."""
        return [result for result in self.results if not result.passed]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready verdict (deterministic field order via sort)."""
        return {
            "slo": self.slo.to_dict(),
            "passed": self.passed,
            "gates": [
                {
                    "gate": result.gate,
                    "metric": result.metric,
                    "direction": result.direction,
                    "limit": result.limit,
                    "actual": result.actual,
                    "passed": result.passed,
                }
                for result in self.results
            ],
        }

    def render(self) -> str:
        """The aligned gate table plus the one-line verdict."""
        lines = [result.render() for result in self.results]
        lines.append("slo %r: %s" % (
            self.slo.name, "PASS" if self.passed else
            "FAIL (%d gate(s) breached)" % len(self.failures()),
        ))
        return "\n".join(lines)


def evaluate(measurements: Mapping[str, Any],
             slo: Optional[SLOSpec]) -> Optional[SLOReport]:
    """Evaluate *measurements* against *slo* (None = no gating).

    Raises :class:`~repro.errors.LoadGenError` when a gated metric is
    missing from the measurements — a gate that silently passes
    because nothing was measured would be worse than no gate.
    """
    if slo is None:
        return None
    results: List[GateResult] = []

    def check(gate: str, limit: float, metric: str,
              label: str) -> None:
        _base, direction, _kind = GATES[gate]
        if metric not in measurements:
            raise LoadGenError(
                "SLO gate %r needs metric %r, absent from the "
                "measurements (%s)"
                % (label, metric, ", ".join(sorted(measurements)))
            )
        actual = float(measurements[metric])
        passed = actual <= limit if direction == "max" else actual >= limit
        results.append(GateResult(
            gate=label, metric=metric, direction=direction,
            limit=limit, actual=actual, passed=passed,
        ))

    for gate, limit in slo.gates:
        check(gate, limit, GATES[gate][0], gate)
    for tenant_id, tier in slo.tenant_gates:
        for gate, limit in tier:
            check(gate, limit, "tenant.%s.%s" % (tenant_id, GATES[gate][0]),
                  "tenants.%s.%s" % (tenant_id, gate))
    return SLOReport(slo=slo, results=tuple(results))
