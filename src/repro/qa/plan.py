"""Federated execution plans: the answer path as an explicit IR.

Every question the hybrid pipeline answers compiles to a
:class:`FederatedPlan` — a small typed DAG of stages (``Route``,
``RetrieveTopology``, ``SynthesizeSpec``, ``ExecuteTable``,
``ExecuteText``, ``Ground``, ``SelectBest``)
instead of imperative control flow buried in the pipeline. The plan is
declarative and inert: one shared
:class:`~repro.qa.executor.PlanExecutor` interprets it, owning the
resilience guard, obs spans and degradation annotation per stage.

Why an IR at all:

* **one cache key** — :meth:`FederatedPlan.signature` is the canonical
  identity of "how this question will be answered"; the serving
  layer's plan tier keys off it instead of per-tier string munging;
* **a place to hang optimisations** — parallel hybrid arms,
  speculative routing and cost-based stage ordering (see ROADMAP) all
  need a plan object to rewrite.

This module is also the single source of the routing vocabulary:
``ROUTE_STRUCTURED`` / ``ROUTE_UNSTRUCTURED`` / ``ROUTE_HYBRID`` are
defined here and aliased by :mod:`repro.qa.federation` and
:mod:`repro.qa` for backward compatibility.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..semql.catalog import QuestionFrame
from ..tenancy import TenantContext

# ----------------------------------------------------------------------
# Routing vocabulary (single source; federation/pipeline alias these)
# ----------------------------------------------------------------------

ROUTE_STRUCTURED = "structured"
ROUTE_UNSTRUCTURED = "unstructured"
ROUTE_HYBRID = "hybrid"

# ----------------------------------------------------------------------
# Stage vocabulary
# ----------------------------------------------------------------------

STAGE_ROUTE = "Route"
STAGE_RETRIEVE_TOPOLOGY = "RetrieveTopology"
STAGE_SYNTHESIZE_SPEC = "SynthesizeSpec"
STAGE_EXECUTE_TABLE = "ExecuteTable"
STAGE_EXECUTE_TEXT = "ExecuteText"
STAGE_GROUND = "Ground"
STAGE_SELECT_BEST = "SelectBest"

#: Logical engines stages dispatch to (breaker/degradation names for
#: the executable arms match the resilience layer's backend names).
ENGINE_ROUTER = "router"
ENGINE_TABLEQA = "structured"
ENGINE_TEXTQA = "text"
ENGINE_SELECTOR = "selector"
ENGINE_GROUNDING = "grounding"

# Execution conditions: when the executor runs a stage.
WHEN_ALWAYS = "always"
#: The stage runs because the routing decision demands it.
WHEN_ROUTE = "route"
#: Rescue arm: runs only when every prior candidate abstained.
WHEN_RESCUE_ABSTAIN = "rescue_abstain"
#: Rescue arm: runs only when another engine failed, this one has not,
#: and every prior candidate abstained (the degradation ladder).
WHEN_RESCUE_FAILED = "rescue_failed"


@dataclass(frozen=True)
class PlanStage:
    """One node of the federated DAG.

    ``when`` declares the condition under which the executor runs the
    stage; ``params`` carries compile-time bindings (the routing
    decision's reason, bound tables) as sorted string pairs so the
    stage stays hashable and signature-stable.
    """

    id: str
    kind: str
    engine: str
    depends_on: Tuple[str, ...] = ()
    when: str = WHEN_ALWAYS
    params: Tuple[Tuple[str, str], ...] = ()

    def signature(self) -> Tuple:
        """Canonical comparison form of this stage."""
        return (self.id, self.kind, self.engine, self.depends_on,
                self.when, self.params)

    def param(self, key: str, default: str = "") -> str:
        """The value bound for *key* at compile time, or *default*."""
        for name, value in self.params:
            if name == key:
                return value
        return default


@dataclass(frozen=True)
class FederatedPlan:
    """A compiled answer path: the question, its route, and the DAG.

    Stages are stored in execution order (a topological order of the
    DAG); :meth:`signature` is the canonical identity the serving
    layer's plan cache keys off, and :meth:`digest` a short stable hex
    form for humans and golden tests.

    ``frame`` is the router's analysis of the question (``None`` for a
    hand-built plan). The executor hands it to synthesis so the
    question is analysed once; like ``metadata`` it is outside
    :meth:`signature`, and it takes no part in equality, hashing or
    :func:`render_plan`. It is valid against the catalog that routed the
    question, so a plan runs on the executor that compiled it.
    """

    question: str
    route: str
    stages: Tuple[PlanStage, ...] = ()
    metadata: Tuple[Tuple[str, str], ...] = field(default=())
    frame: Optional[QuestionFrame] = field(default=None, compare=False,
                                           repr=False)

    def meta(self, key: str, default: str = "") -> str:
        """The compile-time metadata value for *key*, or *default*.

        Metadata is advisory (route confidence, compiler notes): it is
        deliberately **excluded** from :meth:`signature`, so it can
        never perturb plan-cache keys or golden digests.
        """
        for name, value in self.metadata:
            if name == key:
                return value
        return default

    def stage(self, stage_id: str) -> PlanStage:
        """The stage named *stage_id* (raises ``KeyError`` if absent)."""
        for stage in self.stages:
            if stage.id == stage_id:
                return stage
        raise KeyError(stage_id)

    def stage_ids(self) -> Tuple[str, ...]:
        """Every stage id, in execution order."""
        return tuple(stage.id for stage in self.stages)

    def signature(self) -> Tuple:
        """Canonical comparison form: question, route, stage DAG.

        Two plans with the same signature answer the same question the
        same way against the same schema surface — the serving plan
        tier's cache key.
        """
        return (
            self.question.strip().lower(),
            self.route,
            tuple(stage.signature() for stage in self.stages),
        )

    def digest(self) -> str:
        """Short stable hex digest of :meth:`signature`."""
        raw = repr(self.signature()).encode("utf-8")
        return hashlib.sha256(raw).hexdigest()[:12]

    def describe(self) -> str:
        """One-line rendering (``route=... stages=[...]``)."""
        return "route=%s stages=[%s]" % (
            self.route, " ".join(self.stage_ids()),
        )


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------

def compile_plan(question: str, decision,
                 has_text_engine: bool,
                 tenant: Optional[TenantContext] = None) -> FederatedPlan:
    """Compile a routing *decision* for *question* into a plan DAG.

    *decision* duck-types :class:`~repro.qa.federation.RouteDecision`
    (``route``, ``reason``, ``bound_tables``; ``confidence`` and
    ``frame`` when present are copied onto the plan outside its
    signature). The compiled DAG
    reproduces the pipeline's answer path exactly:

    * structured arm (synthesize → execute) when the route is
      structured or hybrid;
    * text arm (retrieve → execute) when a text engine exists — as a
      primary arm on unstructured/hybrid routes, as an
      abstention-rescue arm on structured routes;
    * a structured rescue arm (degradation ladder: the text side is
      down and nothing has answered) whenever both engines exist;
    * selection then cross-modal grounding, always.

    *tenant* (a :class:`~repro.tenancy.TenantContext`, optional) is
    where compile-time governance happens: the tenant's canonical RLS
    token is bound onto every table stage and its document-scope token
    onto every text stage, as ordinary ``params``. Because ``params``
    are part of :meth:`PlanStage.signature`, governed plans get
    per-tenant signatures — which is what keys the serving plan tier
    apart per tenant — and :func:`repro.tenancy.check_tenancy` can
    later verify the plan carries exactly its tenant's predicates.
    A permissive tenant (or ``None``) injects nothing, so single-tenant
    plans and their golden digests are byte-identical to before.
    """
    rls_params: Tuple[Tuple[str, str], ...] = ()
    scope_params: Tuple[Tuple[str, str], ...] = ()
    if tenant is not None:
        if tenant.rls:
            rls_params = (("rls", tenant.rls_token()),)
        if tenant.doc_scopes:
            scope_params = (("scope", tenant.scope_token()),)
    route = decision.route
    stages: List[PlanStage] = [PlanStage(
        id="route", kind=STAGE_ROUTE, engine=ENGINE_ROUTER,
        params=(
            ("bound_tables", ",".join(decision.bound_tables)),
            ("reason", decision.reason),
            ("route", route),
        ),
    )]
    arm_heads: List[str] = []
    if route in (ROUTE_STRUCTURED, ROUTE_HYBRID):
        stages.append(PlanStage(
            id="synthesize", kind=STAGE_SYNTHESIZE_SPEC,
            engine=ENGINE_TABLEQA, depends_on=("route",),
            when=WHEN_ROUTE, params=rls_params,
        ))
        stages.append(PlanStage(
            id="execute_table", kind=STAGE_EXECUTE_TABLE,
            engine=ENGINE_TABLEQA, depends_on=("synthesize",),
            when=WHEN_ROUTE, params=rls_params,
        ))
        arm_heads.append("execute_table")
    if has_text_engine:
        text_when = (
            WHEN_ROUTE if route in (ROUTE_UNSTRUCTURED, ROUTE_HYBRID)
            else WHEN_RESCUE_ABSTAIN
        )
        stages.append(PlanStage(
            id="retrieve", kind=STAGE_RETRIEVE_TOPOLOGY,
            engine=ENGINE_TEXTQA, depends_on=("route",), when=text_when,
            params=scope_params,
        ))
        stages.append(PlanStage(
            id="execute_text", kind=STAGE_EXECUTE_TEXT,
            engine=ENGINE_TEXTQA, depends_on=("retrieve",),
            when=text_when, params=scope_params,
        ))
        arm_heads.append("execute_text")
        # The degradation ladder's last rung: with the text side down
        # and nothing answered, the structured engine is retried even
        # on routes that did not select it (and re-asked on routes
        # that did — matching the pipeline's historical behavior).
        stages.append(PlanStage(
            id="synthesize_rescue", kind=STAGE_SYNTHESIZE_SPEC,
            engine=ENGINE_TABLEQA, depends_on=("route", "execute_text"),
            when=WHEN_RESCUE_FAILED, params=rls_params,
        ))
        stages.append(PlanStage(
            id="execute_table_rescue", kind=STAGE_EXECUTE_TABLE,
            engine=ENGINE_TABLEQA, depends_on=("synthesize_rescue",),
            when=WHEN_RESCUE_FAILED, params=rls_params,
        ))
        arm_heads.append("execute_table_rescue")
    stages.append(PlanStage(
        id="select_best", kind=STAGE_SELECT_BEST, engine=ENGINE_SELECTOR,
        depends_on=tuple(arm_heads) or ("route",),
    ))
    stages.append(PlanStage(
        id="ground", kind=STAGE_GROUND, engine=ENGINE_GROUNDING,
        depends_on=("select_best",),
    ))
    confidence = getattr(decision, "confidence", 1.0)
    return FederatedPlan(
        question=question, route=route, stages=tuple(stages),
        metadata=(("route_confidence", "%.2f" % confidence),),
        frame=getattr(decision, "frame", None),
    )


# ----------------------------------------------------------------------
# Rendering (cli ask --explain-plan)
# ----------------------------------------------------------------------

def render_plan(plan: FederatedPlan) -> str:
    """Multi-line human rendering of the DAG, with signatures.

    One header line (digest, route, question), then one line per stage
    with kind, engine, dependencies and execution condition; the
    ``Route`` stage adds its reason and bound tables.
    """
    lines = [
        "plan %s  route=%s" % (plan.digest(), plan.route),
        "question: %s" % plan.question,
    ]
    for index, stage in enumerate(plan.stages, start=1):
        deps = ",".join(stage.depends_on) or "-"
        condition = "" if stage.when == WHEN_ALWAYS \
            else "  when=%s" % stage.when
        lines.append("  [%d] %-22s %-16s engine=%-10s <- %s%s" % (
            index, stage.id, stage.kind, stage.engine, deps, condition,
        ))
        if stage.kind == STAGE_ROUTE:
            reason = stage.param("reason")
            if reason:
                lines.append("        reason: %s" % reason)
            bound = stage.param("bound_tables")
            if bound:
                lines.append("        bound tables: %s" % bound)
    return "\n".join(lines)
