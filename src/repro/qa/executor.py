"""The one interpreter for federated plans.

:class:`PlanExecutor` interprets the :class:`~repro.qa.plan.
FederatedPlan` DAG that every question compiles to, and is the single
place engine dispatch happens: per executable stage it owns the
resilience guard (budget → breaker → fault → call), the obs span, and
the degradation bookkeeping — the pipeline merely compiles, delegates,
and stamps the question-scope summary on the way out.

Arm isolation is not a second interpreter, and the plan's shape
decides it: when a plan's arms span at least two engines each arm's
handler runs inside a :meth:`~repro.resilience.ResilienceManager.arm`
isolation scope under a ``qa.speculate`` span; when they share one
engine the same handler runs bare. Stage order, the guarded-call
sequence and the finalisation are shared, so answers are byte-identical
either way unless the question budget binds (then the isolated run's
rescue reserve abstains less — see :mod:`~repro.qa.speculative`).

Producer stages (``SynthesizeSpec``, ``RetrieveTopology``) execute
*jointly* with their consumer (``ExecuteTable``/``ExecuteText``)
inside one guarded call: splitting them would change the guarded-call
sequence the fault injector and degradation events key off, breaking
the byte-identical contract with the pre-plan pipeline.
"""

from __future__ import annotations

import re
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..obs import span
from ..resilience import DegradationEvent, summarize
from ..semql.catalog import QuestionFrame
from ..tenancy import TenantContext, check_tenancy, tenancy_errors
from .answer import ANSWER_SYSTEM_HYBRID, ANSWER_SYSTEM_RAG, Answer
from .compare import ComparativeQA
from .federation import best_answer
from .plan import (
    ROUTE_STRUCTURED, STAGE_EXECUTE_TABLE, STAGE_EXECUTE_TEXT,
    STAGE_GROUND, STAGE_SELECT_BEST, WHEN_ALWAYS, WHEN_RESCUE_ABSTAIN,
    WHEN_RESCUE_FAILED, WHEN_ROUTE, FederatedPlan, PlanStage,
    compile_plan,
)
from .speculative import PlanArm, arm_cap, extract_arms, record_outcome

#: Stage kind → the :class:`PlanExecutor` method the stage loop
#: dispatches it to. A kind without an entry is skipped: ``Route`` is
#: bound at compile time, and producers (``SynthesizeSpec``,
#: ``RetrieveTopology``) run jointly with their consumer stage.
STAGE_HANDLERS: Dict[str, str] = {
    STAGE_EXECUTE_TABLE: "_stage_execute_table",
    STAGE_EXECUTE_TEXT: "_stage_execute_text",
    STAGE_SELECT_BEST: "_stage_select_best",
    STAGE_GROUND: "_stage_ground",
}


def cross_check(answer: Answer, candidates: List[Answer]) -> Answer:
    """Cross-modal consistency: when both engines answered with a
    number, agreement raises confidence, disagreement is flagged.
    Returns the checked answer (*answer* itself when nothing is
    decided).

    This is the grounding check the paper motivates — an LLM-ish text
    answer that *agrees* with an independently computed SQL result is
    far more trustworthy than either alone.
    """
    def numeric(candidate: Answer):
        value = candidate.value
        if isinstance(value, (int, float)) and not isinstance(
            value, bool
        ):
            return float(value)
        match = re.search(r"[-+]?\d+(?:\.\d+)?",
                          (candidate.text or "").replace(",", ""))
        return float(match.group()) if match else None

    live = [c for c in candidates if not c.abstained]
    if len(live) < 2:
        return answer
    values = [numeric(c) for c in live]
    if any(v is None for v in values):
        return answer
    if all(abs(abs(v) - abs(values[0])) < 1e-6 for v in values[1:]):
        return replace(answer,
                       confidence=min(1.0, answer.confidence + 0.08),
                       metadata={**answer.metadata, "cross_check": "agree"})
    return answer.with_metadata(cross_check="disagree")


def governance_abstain(tenant: TenantContext, findings) -> Answer:
    """The fail-closed verdict: a governed plan failed ``check_tenancy``.

    Never raises — a governance violation is a typed abstention through
    the same degradation vocabulary the resilience and admission layers
    use, so an ungoverned plan degrades availability for one request
    instead of ever reaching an engine.
    """
    detail = "; ".join(f.render() for f in findings)
    event = DegradationEvent("tenancy", "check_tenancy", "governance",
                             detail, fatal=True)
    return Answer.abstain(
        ANSWER_SYSTEM_HYBRID,
        reason="plan rejected by tenancy gate for tenant %r: %s"
        % (tenant.tenant_id, detail),
    ).with_metadata(
        degradation=summarize([event], abstained=True), degraded=True,
        tenancy="rejected",
    )


def _plan_key(plan: FederatedPlan, tenant: Optional[TenantContext]):
    """The key a run of *plan* caches its spec under: the signature,
    tenant-scoped when governed so cached specs never cross tenants."""
    key = plan.signature()
    return key if tenant is None else tenant.cache_key(key)


@dataclass
class _RunState:
    """Mutable per-plan interpreter state threaded through handlers.

    One instance per :meth:`PlanExecutor.execute` call — stage handlers
    share run progress only through this object (never through the
    executor instance), so no state crosses from one plan's run to the
    next. ``tenant`` rides along the same way: the executor holds
    no tenant field, so interleaved requests from different tenants can
    never observe each other's context. ``frame`` is the plan's
    question analysis, handed to every synthesis the run makes.
    """

    question: str
    plan_key: Tuple
    frame: Optional[QuestionFrame] = None
    candidates: List[Answer] = field(default_factory=list)
    failed_engines: List[str] = field(default_factory=list)
    answer: Optional[Answer] = None
    final: Optional[Answer] = None
    tenant: Optional[TenantContext] = None
    # Arm bookkeeping; stays empty when the arms run bare.
    started: Dict[str, int] = field(default_factory=dict)
    cancelled: List[Tuple[str, int]] = field(default_factory=list)
    failed_arms: List[str] = field(default_factory=list)


class PlanExecutor:
    """Compile questions to federated plans and run them.

    The pipeline builds a new executor whenever it replaces an engine,
    so it holds plain references; *text_qa* is ``None`` for a lake
    without text. ``isolate_arms=False`` runs every plan bare — the
    sequential reference the test suite compares the isolated run
    against.
    """

    def __init__(self, router: "FederatedRouter",
                 table_qa: "TableQAEngine",
                 text_qa: "Optional[TextQAEngine]",
                 resilience: "ResilienceManager",
                 slm: object, *,
                 isolate_arms: bool = True):
        self._router = router
        self._table_qa = table_qa
        self._text_qa = text_qa
        self._resilience = resilience
        self._slm = slm
        self._isolate_arms = isolate_arms

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def compile(self, question: str,
                tenant: Optional[TenantContext] = None) -> FederatedPlan:
        """Route *question* and compile the decision into a plan DAG.

        With a *tenant* context the compiled stages carry the tenant's
        governance parameters (see :func:`~repro.qa.plan.compile_plan`).
        """
        decision = self._router.route(question)
        return compile_plan(
            question, decision,
            has_text_engine=self._text_qa is not None,
            tenant=tenant,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def answer(self, question: str,
               tenant: Optional[TenantContext] = None) -> Answer:
        """Full answer path: comparison decomposition, then one plan.

        Comparison questions ("Compare X and Y ...") decompose into
        per-entity sub-questions first, each compiled and executed
        through its own plan (each sub-plan under the same tenant).
        """
        comparer = ComparativeQA(
            self._slm,
            lambda sub: self.answer_single(sub, tenant=tenant),
        )
        compared = self._resilience.shield(
            "compare", "try_answer", lambda: comparer.try_answer(question),
        )
        if compared is not None and not compared.abstained:
            if "route" in compared.metadata:
                return compared
            return compared.with_metadata(route="comparison")
        return self.answer_single(question, tenant=tenant)

    def answer_single(self, question: str,
                      tenant: Optional[TenantContext] = None) -> Answer:
        """Compile one (non-comparison) question and execute its plan."""
        return self.execute(self.compile(question, tenant=tenant),
                            tenant=tenant)

    def execute(self, plan: FederatedPlan,
                tenant: Optional[TenantContext] = None) -> Answer:
        """Interpret *plan* stage by stage under the resilience guard.

        The plan's shape decides only how arms run
        (:meth:`arm_isolation`): isolated, each arm gets an isolation
        scope and the run is recorded under a ``qa.speculate`` span;
        otherwise the stages run bare. Either way it is the same loop
        (:meth:`_run_stages`).

        With a *tenant* context the plan first passes the fail-closed
        :func:`~repro.tenancy.check_tenancy` gate — a stage missing (or
        carrying a foreign) RLS/scope parameter makes the whole request
        a typed abstention before any engine runs (and before the plan
        is counted as run) — and the run's ``plan_key`` becomes
        ``(tenant, signature)`` so downstream plan caching can never
        cross tenants.
        """
        manager = self._resilience
        if tenant is not None:
            findings = tenancy_errors(check_tenancy(plan, tenant))
            if findings:
                return governance_abstain(tenant, findings)
        state = _RunState(question=plan.question,
                          plan_key=_plan_key(plan, tenant),
                          frame=plan.frame, tenant=tenant)
        arms, sequential_because = self.arm_isolation(plan)
        if sequential_because is not None:
            return self._run_stages(plan, manager, state, ())
        with span("qa.speculate") as sp:
            sp.set("arms", ",".join(a.arm_id for a in arms))
            answer = self._run_stages(plan, manager, state, arms)
            record_outcome(sp, answer, state.started, state.cancelled,
                           state.failed_arms)
        return answer

    def arm_isolation(
        self, plan: FederatedPlan,
    ) -> Tuple[Tuple[PlanArm, ...], Optional[str]]:
        """*plan*'s arms and why they run bare (``None``: isolated).

        The rule: arms are isolated iff they span at least two engines
        — only then is there a surviving arm for the rescue reserve to
        protect. Same-engine arms stay serialised by plan order: they
        share one breaker and one fault-injection stream, so running
        them out of order would change the guarded-call sequence.
        """
        arms = extract_arms(plan)
        if not self._isolate_arms:
            return arms, "isolate_arms=False"
        if len({arm.engine for arm in arms}) < 2:
            return arms, "arms on one engine"
        return arms, None

    def _run_stages(self, plan: FederatedPlan, manager, state: _RunState,
                    arms: Tuple[PlanArm, ...]) -> Answer:
        """The stage loop and its finalisation.

        Each due stage dispatches through :data:`STAGE_HANDLERS`
        (a kind without a handler is skipped); handlers communicate
        only via the per-run :class:`_RunState`.

        *arms* are the arms to isolate (none for a bare run). An
        isolated arm's head stage runs inside ``manager.arm`` with its
        rescue reserve; when its ``_due`` condition is already false at
        its slot it is cancelled without dispatching — exactly the
        stage a bare run skips.
        """
        by_head = {arm.head_id: arm for arm in arms}
        n_pending = len(arms)
        for stage in plan.stages:
            handler_name = STAGE_HANDLERS.get(stage.kind)
            if handler_name is None:
                continue
            arm = by_head.get(stage.id)
            if arm is not None:
                n_pending -= 1
            if not self._due(stage, state.candidates,
                             state.failed_engines):
                if arm is not None:
                    state.cancelled.append((arm.arm_id, 0))
                continue
            isolation = nullcontext() if arm is None else manager.arm(
                arm.arm_id, cap=arm_cap(manager, n_pending + 1))
            with isolation as arm_scope:
                getattr(self, handler_name)(manager, state)
            if arm_scope is not None:
                state.started[arm.arm_id] = arm_scope.spent_work
                if arm_scope.fatal:
                    state.failed_arms.append(arm.arm_id)
                if arm_scope.reserve_cut:
                    # Cut off mid-flight by its rescue reserve.
                    state.cancelled.append((arm.arm_id,
                                            arm_scope.spent_work))
            if state.final is not None:
                return state.final
        answer = state.answer
        if answer is None:
            if not state.candidates and not state.failed_engines:
                return Answer.abstain(
                    ANSWER_SYSTEM_HYBRID, "no engine available"
                )
            answer = best_answer(state.candidates)
        if "route" not in answer.metadata:
            answer = answer.with_metadata(route=plan.route)
        if state.failed_engines:
            winner = ("text" if answer.system == ANSWER_SYSTEM_RAG
                      else "structured")
            answer = answer.with_metadata(degraded=True)
            if not answer.abstained and winner not in state.failed_engines:
                answer = answer.with_metadata(fallback_engine=winner)
        return answer

    # ------------------------------------------------------------------
    # Stage handlers (the STAGE_HANDLERS targets)
    # ------------------------------------------------------------------
    def _stage_execute_table(self, manager, state: _RunState) -> None:
        """SynthesizeSpec + ExecuteTable, jointly, under one guard."""
        result, event = manager.try_call(
            "structured", "answer",
            lambda: self._table_qa.answer(state.question,
                                          plan_key=state.plan_key,
                                          tenant=state.tenant,
                                          frame=state.frame),
        )
        if event is not None:
            state.failed_engines.append("structured")
        elif result is not None:
            state.candidates.append(result)

    def _stage_execute_text(self, manager, state: _RunState) -> None:
        """RetrieveTopology + ExecuteText, jointly, under one guard."""
        if self._text_qa is None:
            return
        result, event = manager.try_call(
            "text", "answer",
            lambda: self._text_qa.answer(state.question,
                                         tenant=state.tenant),
        )
        if event is not None:
            state.failed_engines.append("text")
        elif result is not None:
            state.candidates.append(result)

    def _stage_select_best(self, manager, state: _RunState) -> None:
        """Reconcile candidates into one answer (the arms' join)."""
        if not state.candidates and not state.failed_engines:
            state.final = Answer.abstain(
                ANSWER_SYSTEM_HYBRID, "no engine available"
            )
            return
        state.answer = best_answer(state.candidates)

    def _stage_ground(self, manager, state: _RunState) -> None:
        """Cross-modal consistency check on the selected answer."""
        if state.answer is None:
            return
        with span("qa.cross_check") as sp:
            # The selected candidate in state.candidates stays the
            # unchecked value: later stages read only ``abstained``
            # there, which the check never changes.
            state.answer = cross_check(state.answer, state.candidates)
            sp.set("verdict",
                   state.answer.metadata.get("cross_check", "n/a"))

    @staticmethod
    def _due(stage: PlanStage, candidates: List[Answer],
             failed_engines: List[str]) -> bool:
        """Whether a conditional stage fires given the run so far."""
        if stage.when in (WHEN_ALWAYS, WHEN_ROUTE):
            return True
        all_abstained = all(a.abstained for a in candidates)
        if stage.when == WHEN_RESCUE_ABSTAIN:
            return all_abstained
        if stage.when == WHEN_RESCUE_FAILED:
            # The degradation ladder: another engine is down, this one
            # is not, and nothing has answered yet.
            return (bool(failed_engines)
                    and "structured" not in failed_engines
                    and all_abstained)
        return False

    # ------------------------------------------------------------------
    # Auxiliary dispatch (explain / entropy surfaces)
    # ------------------------------------------------------------------
    def dry_run(self, plan: FederatedPlan,
                tenant: Optional[TenantContext] = None) -> List[str]:
        """The engine lines of the pipeline's ``explain()`` for *plan*.

        The structured engine runs on the plan's frame (its SemQL plan
        and answer, or why it abstained) and, off the structured route,
        the retriever runs too, both under *tenant*. Each call goes
        through ``shield``, so a backend fault prints in place of the
        line it cut short instead of raising. A plan the tenancy gate
        rejects reaches no engine, exactly as in :meth:`execute`.
        """
        if tenant is not None:
            findings = tenancy_errors(check_tenancy(plan, tenant))
            if findings:
                return ["tenancy: rejected (%s)"
                        % "; ".join(f.render() for f in findings)]
        manager = self._resilience
        lines: List[str] = []
        with manager.question() as scope:
            answer = manager.shield(
                "explain", "tableqa",
                lambda: self._table_qa.answer(
                    plan.question, plan_key=_plan_key(plan, tenant),
                    tenant=tenant, frame=plan.frame),
            )
            if answer is None:
                lines.append("tableqa: fault (%s)" % scope.events[-1].detail)
            elif answer.abstained:
                lines.append("tableqa: abstained (%s)"
                             % answer.metadata.get("reason", ""))
            else:
                lines.append("tableqa plan: %s"
                             % answer.metadata.get("plan", "?"))
                lines.append("tableqa answer: %s" % answer.text)
            if self._text_qa is None or plan.route == ROUTE_STRUCTURED:
                return lines
            hits = manager.shield(
                "explain", "retrieve",
                lambda: self._text_qa.retrieve(plan.question,
                                               tenant=tenant),
            )
            if hits is None:
                lines.append("retrieval: fault (%s)"
                             % scope.events[-1].detail)
            else:
                lines.append("retrieval: %d chunks (%s)" % (
                    len(hits), ", ".join(h.chunk_id for h in hits[:3])
                ))
        return lines

    def retrieve_contexts(self, question: str) -> List[str]:
        """Retrieved chunk texts for *question* (entropy sampling)."""
        if self._text_qa is None:
            return []
        return [hit.chunk.text
                for hit in self._text_qa.retrieve(question)]
