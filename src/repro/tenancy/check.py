"""``check_tenancy``: the compile-time governance gate.

A static pass over a compiled federated plan: it re-derives, from
the :class:`~repro.tenancy.registry.TenantContext` alone, exactly
which governance parameters every stage must carry, and rejects any
plan that deviates — a table stage missing its mandated
RLS conjunct, a text stage missing its document scope, a stage carrying
*another* tenant's predicates (a cross-tenant replay), or a route that
binds a table outside the tenant's catalog.

The pass is deliberately duck-typed over the plan IR (stages expose
``kind`` and ``params``) so the tenancy layer stays below ``qa`` in
the import DAG; the stage-kind vocabulary is pinned here and asserted
equal to ``repro.qa.plan``'s ``STAGE_*`` constants by
``tests/test_federated_plan.py``, so a renamed stage kind cannot make
this pass skip the stages it governs.

Fail-closed contract: the executor runs this pass on every governed
request and converts any error diagnostic into a typed abstention — an
ungoverned plan never reaches an engine, and a governance bug degrades
availability, never isolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from .registry import TenantContext

#: Stage kinds that touch relational tables (must carry RLS).
TABLE_KINDS = ("SynthesizeSpec", "ExecuteTable")

#: Stage kinds that touch the document/text corpus (must carry scope).
TEXT_KINDS = ("RetrieveTopology", "ExecuteText")

#: The routing stage kind (its bound tables face the catalog check).
ROUTE_KIND = "Route"

#: The stage-parameter keys compile_plan injects and this pass demands.
PARAM_RLS = "rls"
PARAM_SCOPE = "scope"

#: Route-stage parameter naming the tables the router bound.
PARAM_BOUND_TABLES = "bound_tables"

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"


@dataclass(frozen=True)
class TenancyDiagnostic:
    """One finding from the governance pass (mirrors PlanDiagnostic)."""

    code: str
    severity: str
    message: str

    def render(self) -> str:
        """Canonical one-line ``[severity] code: message`` form."""
        return "[%s] %s: %s" % (self.severity, self.code, self.message)


def _param(stage, key: str) -> Optional[str]:
    for name, value in stage.params:
        if name == key:
            return value
    return None


def check_tenancy(plan, context: TenantContext) -> List[TenancyDiagnostic]:
    """Every governance violation in *plan* under *context*.

    An empty list means the plan is exactly as governed as the tenant
    mandates — no more (foreign predicates are rejected too) and no
    less. Callers treat any :data:`SEVERITY_ERROR` finding as fatal.
    """
    findings: List[TenancyDiagnostic] = []
    rls_token = context.rls_token()
    scope_token = context.scope_token()
    for stage in plan.stages:
        if stage.kind in TABLE_KINDS:
            _check_token(findings, stage, PARAM_RLS, rls_token,
                         "tenancy-missing-rls", "tenancy-stale-rls",
                         context.tenant_id)
        elif stage.kind in TEXT_KINDS:
            _check_token(findings, stage, PARAM_SCOPE, scope_token,
                         "tenancy-missing-scope", "tenancy-stale-scope",
                         context.tenant_id)
        elif stage.kind == ROUTE_KIND and context.tables:
            bound = _param(stage, PARAM_BOUND_TABLES) or ""
            for table in filter(None, bound.split(",")):
                if not context.table_visible(table):
                    findings.append(TenancyDiagnostic(
                        "tenancy-invisible-table", SEVERITY_ERROR,
                        "route binds table %r outside tenant %r's "
                        "catalog" % (table, context.tenant_id)))
    return findings


def _check_token(findings: List[TenancyDiagnostic], stage, key: str,
                 expected: str, missing_code: str, stale_code: str,
                 tenant_id: str) -> None:
    actual = _param(stage, key)
    if not expected:
        if actual:
            # A governed param under a permissive tenant means the plan
            # was compiled for somebody else — reject the replay.
            findings.append(TenancyDiagnostic(
                stale_code, SEVERITY_ERROR,
                "stage %r carries foreign %s %r under permissive "
                "tenant %r" % (stage.id, key, actual, tenant_id)))
        return
    if actual is None:
        findings.append(TenancyDiagnostic(
            missing_code, SEVERITY_ERROR,
            "stage %r lacks the mandated %s conjunct for tenant %r"
            % (stage.id, key, tenant_id)))
    elif actual != expected:
        findings.append(TenancyDiagnostic(
            stale_code, SEVERITY_ERROR,
            "stage %r carries %s %r but tenant %r mandates %r"
            % (stage.id, key, actual, tenant_id, expected)))


def tenancy_errors(
    findings: Iterable[TenancyDiagnostic],
) -> List[TenancyDiagnostic]:
    """Just the fatal findings (the executor's fail-closed input)."""
    return [f for f in findings if f.severity == SEVERITY_ERROR]
