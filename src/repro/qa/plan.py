"""Federated execution plans: the answer path as an explicit IR.

Every question the hybrid pipeline answers compiles to a
:class:`FederatedPlan` — a small typed DAG of stages (``Route``,
``RetrieveTopology``, ``SynthesizeSpec``, ``ExecuteTable``,
``ExecuteText``, ``Ground``, ``EstimateEntropy``, ``SelectBest``)
instead of imperative control flow buried in the pipeline. The plan is
declarative and inert: one shared
:class:`~repro.qa.executor.PlanExecutor` interprets it, owning the
resilience guard, obs spans and degradation annotation per stage.

Why an IR at all:

* **one cache key** — :meth:`FederatedPlan.signature` is the canonical
  identity of "how this question will be answered"; the serving
  layer's plan tier keys off it instead of per-tier string munging;
* **static checking** — :func:`check_plan` lints a compiled DAG
  (unreachable stages, engine calls that contradict the route, a
  hybrid plan with no grounding stage), mirroring the relational plan
  checker in :mod:`repro.storage.relational.plancheck`. Nothing on
  the answer path calls it: it is the tests' and tooling's checker;
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
from typing import Dict, List, Optional, Set, Tuple

from ..semql.catalog import QuestionFrame
from ..storage.relational.plancheck import ERROR, WARNING, PlanDiagnostic
from ..tenancy import TenantContext

# ----------------------------------------------------------------------
# Routing vocabulary (single source; federation/pipeline alias these)
# ----------------------------------------------------------------------

ROUTE_STRUCTURED = "structured"
ROUTE_UNSTRUCTURED = "unstructured"
ROUTE_HYBRID = "hybrid"

#: Every route the federated router can emit.
ROUTES = (ROUTE_STRUCTURED, ROUTE_UNSTRUCTURED, ROUTE_HYBRID)

# ----------------------------------------------------------------------
# Stage vocabulary
# ----------------------------------------------------------------------

STAGE_ROUTE = "Route"
STAGE_RETRIEVE_TOPOLOGY = "RetrieveTopology"
STAGE_SYNTHESIZE_SPEC = "SynthesizeSpec"
STAGE_EXECUTE_TABLE = "ExecuteTable"
STAGE_EXECUTE_TEXT = "ExecuteText"
STAGE_GROUND = "Ground"
STAGE_ESTIMATE_ENTROPY = "EstimateEntropy"
STAGE_SELECT_BEST = "SelectBest"

#: Every stage kind a federated plan may contain.
STAGE_KINDS = (
    STAGE_ROUTE, STAGE_RETRIEVE_TOPOLOGY, STAGE_SYNTHESIZE_SPEC,
    STAGE_EXECUTE_TABLE, STAGE_EXECUTE_TEXT, STAGE_GROUND,
    STAGE_ESTIMATE_ENTROPY, STAGE_SELECT_BEST,
)

#: Logical engines stages dispatch to (breaker/degradation names for
#: the executable arms match the resilience layer's backend names).
ENGINE_ROUTER = "router"
ENGINE_TABLEQA = "structured"
ENGINE_TEXTQA = "text"
ENGINE_SELECTOR = "selector"
ENGINE_GROUNDING = "grounding"
ENGINE_ENTROPY = "entropy"

# Execution conditions: when the executor runs a stage.
WHEN_ALWAYS = "always"
#: The stage runs because the routing decision demands it.
WHEN_ROUTE = "route"
#: Rescue arm: runs only when every prior candidate abstained.
WHEN_RESCUE_ABSTAIN = "rescue_abstain"
#: Rescue arm: runs only when another engine failed, this one has not,
#: and every prior candidate abstained (the degradation ladder).
WHEN_RESCUE_FAILED = "rescue_failed"

#: Every condition the executor understands.
WHEN_KINDS = (WHEN_ALWAYS, WHEN_ROUTE, WHEN_RESCUE_ABSTAIN,
              WHEN_RESCUE_FAILED)

#: Which engine each executable stage kind must name.
_STAGE_ENGINES = {
    STAGE_ROUTE: ENGINE_ROUTER,
    STAGE_RETRIEVE_TOPOLOGY: ENGINE_TEXTQA,
    STAGE_SYNTHESIZE_SPEC: ENGINE_TABLEQA,
    STAGE_EXECUTE_TABLE: ENGINE_TABLEQA,
    STAGE_EXECUTE_TEXT: ENGINE_TEXTQA,
    STAGE_GROUND: ENGINE_GROUNDING,
    STAGE_ESTIMATE_ENTROPY: ENGINE_ENTROPY,
    STAGE_SELECT_BEST: ENGINE_SELECTOR,
}


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
                 include_entropy: bool = False,
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
    * selection then cross-modal grounding, always;
    * an entropy-estimation stage when *include_entropy* is set
      (the ``answer_with_uncertainty`` surface).

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
    if include_entropy:
        stages.append(PlanStage(
            id="estimate_entropy", kind=STAGE_ESTIMATE_ENTROPY,
            engine=ENGINE_ENTROPY, depends_on=("ground",),
        ))
    confidence = getattr(decision, "confidence", 1.0)
    return FederatedPlan(
        question=question, route=route, stages=tuple(stages),
        metadata=(("route_confidence", "%.2f" % confidence),),
        frame=getattr(decision, "frame", None),
    )


# ----------------------------------------------------------------------
# Static checking (the federated analogue of relational plancheck)
# ----------------------------------------------------------------------

def check_plan(plan: FederatedPlan) -> List[PlanDiagnostic]:
    """Static diagnostics for a federated plan (tests and tooling;
    the answer path does not run it).

    Errors: unknown route/stage kind/condition, duplicate stage ids,
    unknown or cyclic dependencies, a stage unreachable from the
    ``Route`` stage, an executable arm whose engine contradicts the
    route, a hybrid plan with no grounding stage, and execute stages
    missing their producer (``ExecuteTable`` without ``SynthesizeSpec``,
    ``ExecuteText`` without ``RetrieveTopology``). Warnings: execute
    stages present with no ``SelectBest`` consumer, plus the
    cross-stage dataflow checks:

    * ``unreachable-condition`` — a ``rescue_failed`` stage whose
      condition can never hold (no *other* engine in the plan whose
      failure could trigger the rescue);
    * ``unread-output`` — a stage output no consumer reads: a producer
      (``SynthesizeSpec``/``RetrieveTopology``) no execute stage
      depends on, or an execute stage no ``SelectBest`` transitively
      consumes;
    * ``unordered-engine-reuse`` — two primary-arm stages dispatching
      the same engine (same circuit breaker, same fault-injection RNG
      stream) with no dependency path between them: a parallel
      executor would race order-sensitive backend state.
    """
    out: List[PlanDiagnostic] = []

    def emit(code: str, severity: str, message: str) -> None:
        out.append(PlanDiagnostic(code, severity, message))

    if plan.route not in ROUTES:
        emit("unknown-route", ERROR,
             "route %r is not one of %s" % (plan.route, ", ".join(ROUTES)))
    ids: Dict[str, PlanStage] = {}
    for stage in plan.stages:
        if stage.kind not in STAGE_KINDS:
            emit("unknown-stage-kind", ERROR,
                 "stage %r has unknown kind %r" % (stage.id, stage.kind))
        elif stage.engine != _STAGE_ENGINES[stage.kind]:
            emit("engine-mismatch", ERROR,
                 "stage %r (%s) dispatches to engine %r; %s stages run "
                 "on %r" % (stage.id, stage.kind, stage.engine,
                            stage.kind, _STAGE_ENGINES[stage.kind]))
        if stage.when not in WHEN_KINDS:
            emit("unknown-condition", ERROR,
                 "stage %r has unknown condition %r"
                 % (stage.id, stage.when))
        if stage.id in ids:
            emit("duplicate-stage", ERROR,
                 "stage id %r appears more than once" % stage.id)
        ids[stage.id] = stage
    for stage in plan.stages:
        for dep in stage.depends_on:
            if dep not in ids:
                emit("unknown-dependency", ERROR,
                     "stage %r depends on unknown stage %r"
                     % (stage.id, dep))
    routes = [s for s in plan.stages if s.kind == STAGE_ROUTE]
    if not routes:
        emit("missing-route-stage", ERROR,
             "plan has no Route stage; nothing anchors the DAG")
    _check_cycles(plan, ids, emit)
    if routes:
        _check_reachability(plan, ids, routes[0], emit)
    _check_route_consistency(plan, emit)
    _check_producers(plan, ids, emit)
    executable = [s for s in plan.stages
                  if s.kind in (STAGE_EXECUTE_TABLE, STAGE_EXECUTE_TEXT)]
    if plan.route == ROUTE_HYBRID and not any(
        s.kind == STAGE_GROUND for s in plan.stages
    ):
        emit("missing-grounding", ERROR,
             "hybrid plan has no Ground stage: cross-modal answers "
             "would never be consistency-checked")
    if executable and not any(
        s.kind == STAGE_SELECT_BEST for s in plan.stages
    ):
        emit("missing-selection", WARNING,
             "plan executes engines but has no SelectBest stage; "
             "candidate answers are never reconciled")
    _check_dataflow(plan, ids, emit)
    return out


def _dependents(plan: FederatedPlan) -> Dict[str, Set[str]]:
    """Forward adjacency: stage id -> ids that depend on it."""
    out: Dict[str, Set[str]] = {stage.id: set() for stage in plan.stages}
    for stage in plan.stages:
        for dep in stage.depends_on:
            if dep in out:
                out[dep].add(stage.id)
    return out


def _downstream(start: str, forward: Dict[str, Set[str]]) -> Set[str]:
    """Every stage id transitively reachable from *start*."""
    seen: Set[str] = set()
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for succ in forward.get(node, ()):
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return seen


def _check_dataflow(plan: FederatedPlan, ids: Dict[str, PlanStage],
                    emit) -> None:
    """Cross-stage dataflow checks (see :func:`check_plan`)."""
    forward = _dependents(plan)

    # Unreachable rescue conditions: rescue_failed fires only when a
    # *different* engine's guarded call has failed; with no such stage
    # in the plan the condition is statically false.
    engines_run = {s.engine for s in plan.stages
                   if s.kind in (STAGE_EXECUTE_TABLE, STAGE_EXECUTE_TEXT)}
    for stage in plan.stages:
        if stage.when != WHEN_RESCUE_FAILED:
            continue
        if not (engines_run - {stage.engine}):
            emit("unreachable-condition", WARNING,
                 "stage %r (when=%s) can never run: no other engine in "
                 "this plan whose failure could trigger the rescue"
                 % (stage.id, stage.when))

    # Outputs no consumer reads. Producers feed their execute stage;
    # execute stages feed SelectBest (possibly transitively).
    consumers = {
        STAGE_SYNTHESIZE_SPEC: (STAGE_EXECUTE_TABLE,),
        STAGE_RETRIEVE_TOPOLOGY: (STAGE_EXECUTE_TEXT,),
        STAGE_EXECUTE_TABLE: (STAGE_SELECT_BEST,),
        STAGE_EXECUTE_TEXT: (STAGE_SELECT_BEST,),
    }
    for stage in plan.stages:
        wanted = consumers.get(stage.kind)
        if wanted is None:
            continue
        reached = _downstream(stage.id, forward)
        if not any(ids[sid].kind in wanted for sid in reached
                   if sid in ids):
            emit("unread-output", WARNING,
                 "stage %r (%s) produces output no %s stage consumes"
                 % (stage.id, stage.kind, "/".join(wanted)))

    # Same engine dispatched from two primary arms with no ordering
    # edge: breaker state and the per-backend fault-injection RNG
    # stream are order-sensitive, so the pair cannot be parallelized
    # and must carry an explicit dependency. Rescue arms are exempt:
    # their conditions impose an execution order of their own.
    primary = [s for s in plan.stages
               if s.when in (WHEN_ALWAYS, WHEN_ROUTE)
               and s.kind != STAGE_ROUTE]
    for i, first in enumerate(primary):
        below_first = _downstream(first.id, forward)
        for second in primary[i + 1:]:
            if first.engine != second.engine:
                continue
            if (second.id in below_first
                    or first.id in _downstream(second.id, forward)):
                continue
            emit("unordered-engine-reuse", WARNING,
                 "stages %r and %r both dispatch engine %r with no "
                 "dependency path between them; backend state (breaker, "
                 "fault RNG stream) would race under parallel execution"
                 % (first.id, second.id, first.engine))


def _check_cycles(plan: FederatedPlan, ids: Dict[str, PlanStage],
                  emit) -> None:
    """Reject dependency cycles (no valid execution order exists)."""
    state: Dict[str, int] = {}  # 0 = visiting, 1 = done

    def visit(stage_id: str, trail: Tuple[str, ...]) -> None:
        mark = state.get(stage_id)
        if mark == 1:
            return
        if mark == 0:
            cycle = trail[trail.index(stage_id):] + (stage_id,)
            emit("dependency-cycle", ERROR,
                 "dependency cycle: %s" % " -> ".join(cycle))
            state[stage_id] = 1
            return
        state[stage_id] = 0
        for dep in ids[stage_id].depends_on:
            if dep in ids:
                visit(dep, trail + (stage_id,))
        state[stage_id] = 1

    for stage_id in sorted(ids):
        visit(stage_id, ())


def _check_reachability(plan: FederatedPlan, ids: Dict[str, PlanStage],
                        route_stage: PlanStage, emit) -> None:
    """Every stage must sit downstream of the Route stage."""
    reachable: Set[str] = {route_stage.id}
    changed = True
    while changed:
        changed = False
        for stage in plan.stages:
            if stage.id in reachable:
                continue
            if any(dep in reachable for dep in stage.depends_on):
                reachable.add(stage.id)
                changed = True
    for stage in plan.stages:
        if stage.id not in reachable:
            emit("unreachable-stage", ERROR,
                 "stage %r is unreachable from the Route stage; it "
                 "would never execute" % stage.id)


def _check_route_consistency(plan: FederatedPlan, emit) -> None:
    """Primary arms must match the route; rescues are exempt."""
    primary = (WHEN_ALWAYS, WHEN_ROUTE)
    for stage in plan.stages:
        if stage.when not in primary:
            continue
        if (stage.kind in (STAGE_SYNTHESIZE_SPEC, STAGE_EXECUTE_TABLE)
                and plan.route == ROUTE_UNSTRUCTURED):
            emit("route-mismatch", ERROR,
                 "stage %r runs the structured engine as a primary arm "
                 "on an unstructured route" % stage.id)
        if (stage.kind in (STAGE_RETRIEVE_TOPOLOGY, STAGE_EXECUTE_TEXT)
                and plan.route == ROUTE_STRUCTURED):
            emit("route-mismatch", ERROR,
                 "stage %r runs the text engine as a primary arm on a "
                 "structured route (rescue arms must declare "
                 "when=%r)" % (stage.id, WHEN_RESCUE_ABSTAIN))


def _check_producers(plan: FederatedPlan, ids: Dict[str, PlanStage],
                     emit) -> None:
    """Execute stages need their producer stage upstream."""
    needs = {
        STAGE_EXECUTE_TABLE: STAGE_SYNTHESIZE_SPEC,
        STAGE_EXECUTE_TEXT: STAGE_RETRIEVE_TOPOLOGY,
    }
    for stage in plan.stages:
        producer = needs.get(stage.kind)
        if producer is None:
            continue
        if not any(
            dep in ids and ids[dep].kind == producer
            for dep in stage.depends_on
        ):
            emit("missing-producer", ERROR,
                 "stage %r (%s) does not depend on a %s stage"
                 % (stage.id, stage.kind, producer))


# ----------------------------------------------------------------------
# Rendering (cli ask --explain-plan)
# ----------------------------------------------------------------------

def render_plan(plan: FederatedPlan) -> str:
    """Multi-line human rendering of the DAG, with signatures.

    One header line (digest, route, question), one line per stage with
    kind, engine, dependencies and execution condition, and the static
    check verdict.
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
    diagnostics = check_plan(plan)
    if diagnostics:
        lines.append("  checks:")
        lines.extend("    " + diag.render() for diag in diagnostics)
    else:
        lines.append("  checks: clean")
    return "\n".join(lines)
