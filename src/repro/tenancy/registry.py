"""Tenant registry: declarative governance specs, immutable contexts.

The multi-tenant gateway's source of truth. A registry is parsed from
a declarative JSON document (one ``tenants`` list) into immutable
:class:`TenantContext` objects — per-tenant catalog visibility,
row-level-security predicates per table, document-scope prefixes,
work-clock quota limits and an SLO tier. Every request then carries
its context explicitly through the stack; there is **no mutable
module-level tenant state** anywhere (a lint rule enforces this), so
tenancy can never leak between interleaved requests.

The registry always contains a permissive ``default`` tenant (full
catalog, no RLS, no document scoping, no quota) unless the spec file
overrides it, so single-tenant callers keep today's behaviour
byte-for-byte.

Registry file format::

    {
      "tenants": [
        {
          "id": "acme",
          "description": "EU storefront",
          "tables": ["products", "sales"],
          "rls": [
            {"table": "sales", "column": "quarter", "op": "=",
             "value": "Q1"}
          ],
          "documents": ["review-"],
          "quota": {"capacity": 600, "refill": 0.5},
          "tier": "standard"
        }
      ]
    }

``validate_registry_data`` collects findings without raising (the
``repro tenants`` CLI's exit-1 path); :meth:`TenantRegistry.from_dict`
raises :class:`~repro.errors.TenancyError` on the first problem (the
fail-closed programmatic path).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import TenancyError

#: The implicit permissive tenant every registry contains.
DEFAULT_TENANT = "default"

#: Predicate operators an RLS rule may use (mirrors the SemQL filter
#: vocabulary; the qa layer converts rules to FilterSpec conjuncts).
RLS_OPS = ("=", "!=", "<", "<=", ">", ">=", "like")

#: SLO tiers a tenant spec may declare.
TIERS = ("standard", "degraded", "best_effort")

_TENANT_KEYS = ("id", "description", "tables", "rls", "documents",
                "quota", "tier")
_RULE_KEYS = ("table", "column", "op", "value")
_QUOTA_KEYS = ("capacity", "refill")


@dataclass(frozen=True)
class RLSRule:
    """One mandated row-level-security conjunct: table.column op value."""

    table: str
    column: str
    op: str
    value: Any

    def __post_init__(self):
        if not self.table or not self.column:
            raise TenancyError("RLS rule needs a table and a column")
        if self.op not in RLS_OPS:
            raise TenancyError("unsupported RLS op %r" % (self.op,))

    def render(self) -> str:
        """Canonical one-line form, stable across runs."""
        return render_rule(self)


def render_rule(rule: "RLSRule") -> str:
    """Canonical one-line form of one RLS conjunct.

    On the plan compiler's hot path (:meth:`TenantContext.rls_token`);
    must stay side-effect free.
    """
    return "%s.%s %s %r" % (rule.table, rule.column, rule.op,
                            rule.value)


@dataclass(frozen=True)
class TenantContext:
    """One tenant's resolved governance view — immutable by design.

    Frozen so a context handed to a request can never be mutated
    mid-flight; every field that matters for governance is a tuple.
    Empty ``tables``/``doc_scopes`` mean *unrestricted* (the permissive
    default), never *nothing visible* — restriction is always explicit.
    """

    tenant_id: str
    description: str = ""
    tables: Tuple[str, ...] = ()
    rls: Tuple[RLSRule, ...] = ()
    doc_scopes: Tuple[str, ...] = ()
    quota_capacity: Optional[int] = None
    quota_refill: float = 0.0
    tier: str = "standard"

    def __post_init__(self):
        if not self.tenant_id:
            raise TenancyError("tenant needs a non-empty id")
        if self.tier not in TIERS:
            raise TenancyError("unknown SLO tier %r" % (self.tier,))
        if self.quota_capacity is not None and self.quota_capacity < 1:
            raise TenancyError("quota capacity must be positive")
        if self.quota_refill < 0:
            raise TenancyError("quota refill must be non-negative")

    # -- catalog / document visibility ---------------------------------
    @property
    def is_permissive(self) -> bool:
        """True when this tenant sees everything (no governance)."""
        return not (self.tables or self.rls or self.doc_scopes)

    def table_visible(self, name: str) -> bool:
        """May this tenant touch table *name* at all?"""
        return not self.tables or name in self.tables

    def doc_visible(self, doc_id: str) -> bool:
        """May this tenant read document *doc_id*? (prefix scoping)"""
        if not self.doc_scopes:
            return True
        return any(doc_id.startswith(scope) for scope in self.doc_scopes)

    def rules_for(self, table: str) -> Tuple[RLSRule, ...]:
        """The RLS conjuncts mandated on *table* (possibly empty)."""
        return tuple(r for r in self.rls if r.table == table)

    # -- canonical plan-parameter tokens -------------------------------
    def rls_token(self) -> str:
        """Deterministic rendering of every RLS conjunct.

        Injected verbatim as a stage parameter by ``compile_plan`` and
        re-demanded verbatim by ``check_tenancy`` — the token being part
        of the stage ``params`` makes governed plan signatures differ
        per tenant, which is what keys every cache tier apart.
        """
        return " AND ".join(sorted(render_rule(r) for r in self.rls))

    def scope_token(self) -> str:
        """Deterministic rendering of the document visibility scopes."""
        return ",".join(sorted(self.doc_scopes))

    def cache_key(self, key: Any) -> Tuple[str, Any]:
        """The ``(tenant, key)`` form every serving cache tier uses."""
        return (self.tenant_id, key)

    def describe(self) -> str:
        """One-line summary for the ``repro tenants`` listing."""
        parts = ["tier=%s" % self.tier]
        parts.append("tables=%s" % (",".join(self.tables) or "*"))
        parts.append("rls=%d" % len(self.rls))
        parts.append("docs=%s" % (self.scope_token() or "*"))
        if self.quota_capacity is not None:
            parts.append("quota=%d@%.2f" % (self.quota_capacity,
                                            self.quota_refill))
        return "%s: %s" % (self.tenant_id, " ".join(parts))


#: The permissive context single-tenant callers implicitly run under.
PERMISSIVE_DEFAULT = TenantContext(tenant_id=DEFAULT_TENANT,
                                   description="permissive default")


def _context_from_dict(data: Dict[str, Any]) -> TenantContext:
    """Parse one tenant record; raises TenancyError on any problem."""
    if not isinstance(data, dict):
        raise TenancyError("tenant spec must be an object")
    unknown = set(data) - set(_TENANT_KEYS)
    if unknown:
        raise TenancyError(
            "unknown tenant spec keys: %s" % ", ".join(sorted(unknown)))
    if "id" not in data:
        raise TenancyError("tenant spec needs an 'id'")
    rules: List[RLSRule] = []
    for record in data.get("rls", ()):
        if not isinstance(record, dict):
            raise TenancyError("RLS rule must be an object")
        unknown = set(record) - set(_RULE_KEYS)
        if unknown:
            raise TenancyError(
                "unknown RLS rule keys: %s" % ", ".join(sorted(unknown)))
        missing = set(_RULE_KEYS) - set(record)
        if missing:
            raise TenancyError(
                "RLS rule missing: %s" % ", ".join(sorted(missing)))
        rules.append(RLSRule(str(record["table"]), str(record["column"]),
                             str(record["op"]), record["value"]))
    quota = data.get("quota") or {}
    if not isinstance(quota, dict):
        raise TenancyError("quota must be an object")
    unknown = set(quota) - set(_QUOTA_KEYS)
    if unknown:
        raise TenancyError(
            "unknown quota keys: %s" % ", ".join(sorted(unknown)))
    capacity = quota.get("capacity")
    if capacity is not None and not isinstance(capacity, int):
        raise TenancyError("quota capacity must be an integer")
    refill = quota.get("refill", 0.0)
    if isinstance(refill, bool) or not isinstance(refill, (int, float)):
        raise TenancyError("quota refill must be a number")
    return TenantContext(
        tenant_id=str(data["id"]),
        description=str(data.get("description", "")),
        tables=tuple(str(t) for t in data.get("tables", ())),
        rls=tuple(rules),
        doc_scopes=tuple(str(s) for s in data.get("documents", ())),
        quota_capacity=capacity,
        quota_refill=float(refill),
        tier=str(data.get("tier", "standard")),
    )


def validate_registry_data(data: Any) -> List[str]:
    """Collect every finding in a registry document without raising.

    The lenient twin of :meth:`TenantRegistry.from_dict`, used by the
    ``repro tenants`` CLI: an empty list means the document would load.
    """
    findings: List[str] = []
    if not isinstance(data, dict):
        return ["registry document must be a JSON object"]
    unknown = set(data) - {"tenants"}
    if unknown:
        findings.append(
            "unknown registry keys: %s" % ", ".join(sorted(unknown)))
    tenants = data.get("tenants", [])
    if not isinstance(tenants, list):
        return findings + ["'tenants' must be a list"]
    seen: Dict[str, int] = {}
    for index, record in enumerate(tenants):
        try:
            context = _context_from_dict(record)
        except TenancyError as exc:
            findings.append("tenant #%d: %s" % (index, exc))
            continue
        if context.tenant_id in seen:
            findings.append(
                "tenant #%d: duplicate id %r (first at #%d)"
                % (index, context.tenant_id, seen[context.tenant_id]))
        else:
            seen[context.tenant_id] = index
    return findings


@dataclass(frozen=True)
class TenantRegistry:
    """An immutable mapping of tenant id to :class:`TenantContext`.

    Always resolves the permissive :data:`DEFAULT_TENANT` (unless the
    spec overrides it), so code paths that never heard of tenancy keep
    working unchanged. Unknown tenant ids **fail closed**: ``context``
    raises rather than silently granting the permissive view.
    """

    contexts: Tuple[TenantContext, ...] = field(
        default=(PERMISSIVE_DEFAULT,))

    def __post_init__(self):
        seen = set()
        for context in self.contexts:
            if context.tenant_id in seen:
                raise TenancyError(
                    "duplicate tenant id %r" % context.tenant_id)
            seen.add(context.tenant_id)
        if DEFAULT_TENANT not in seen:
            object.__setattr__(
                self, "contexts", self.contexts + (PERMISSIVE_DEFAULT,))

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TenantRegistry":
        """Parse a registry document; raises TenancyError on problems."""
        findings = validate_registry_data(data)
        if findings:
            raise TenancyError("; ".join(findings))
        return cls(contexts=tuple(
            _context_from_dict(record)
            for record in data.get("tenants", [])))

    def tenant_ids(self) -> Tuple[str, ...]:
        """Every registered tenant id, sorted."""
        return tuple(sorted(c.tenant_id for c in self.contexts))

    def context(self, tenant_id: str) -> TenantContext:
        """Resolve *tenant_id*; unknown ids raise (fail closed)."""
        for context in self.contexts:
            if context.tenant_id == tenant_id:
                return context
        raise TenancyError("unknown tenant %r (registered: %s)" % (
            tenant_id, ", ".join(self.tenant_ids())))
