"""Plan arms: extraction, the rescue reserve and outcome bookkeeping.

There is one plan interpreter, :class:`~repro.qa.executor.PlanExecutor`;
this module holds what it needs to treat the independent arms of a
compiled :class:`~repro.qa.plan.FederatedPlan` (structured
``SynthesizeSpec→ExecuteTable``, text ``RetrieveTopology→ExecuteText``,
and the rescue arms) as units of failure isolation. Arms never overlap:
they run in fixed plan order, one guarded-call sequence per backend, a
rescue arm is skipped the moment an earlier arm's answer is live (the
interpreter's own ``_due``), and the join is the plan's ``SelectBest``
stage — so fault-injection replay and answers are the same whether or
not the arms are isolated, as long as the question budget is not
binding.

What isolation *adds* is the **rescue reserve**: each arm of a plan
whose arms span at least two engines runs inside a
:meth:`~repro.resilience.ResilienceManager.arm` scope carrying
:func:`arm_cap` — a deterministic share of the remaining question
budget, enforced only after the arm witnesses a fault. A faulting arm's
retry/backoff spiral is cut off at the reserve, so a ``TransientError``
/ ``CircuitOpenError`` / budget exhaustion in one arm can no longer
starve the surviving arm, which completes cleanly and rescues the
question instead of degrading it. Arms that share one engine have no
survivor to protect and run bare.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .answer import ANSWER_SYSTEM_RAG, Answer
from .plan import (
    STAGE_EXECUTE_TABLE, STAGE_EXECUTE_TEXT, STAGE_RETRIEVE_TOPOLOGY,
    STAGE_SYNTHESIZE_SPEC, WHEN_ALWAYS, WHEN_ROUTE, FederatedPlan,
)


@dataclass(frozen=True)
class PlanArm:
    """One independent executable arm of a federated plan.

    ``head_id`` names the execute stage that drives the arm's single
    guarded dispatch (producers run jointly with it); ``kinds`` lists
    the stage kinds the arm covers, in order.
    """

    arm_id: str
    engine: str
    kinds: Tuple[str, ...]
    head_id: str
    when: str


def extract_arms(plan: FederatedPlan) -> Tuple[PlanArm, ...]:
    """The plan's executable arms, in plan (= execution) order.

    Each execute stage anchors one arm together with the producer it
    depends on. Arm ids are derived from the engine: the first arm per
    engine is the primary (``structured``/``text``), later ones are
    rescues (``structured-rescue``).
    """
    producer_of = {
        STAGE_EXECUTE_TABLE: STAGE_SYNTHESIZE_SPEC,
        STAGE_EXECUTE_TEXT: STAGE_RETRIEVE_TOPOLOGY,
    }
    by_id = {stage.id: stage for stage in plan.stages}
    used: Dict[str, int] = {}
    arms: List[PlanArm] = []
    for stage in plan.stages:
        wanted = producer_of.get(stage.kind)
        if wanted is None:
            continue
        kinds: List[str] = []
        for dep in stage.depends_on:
            producer = by_id.get(dep)
            if producer is not None and producer.kind == wanted:
                kinds.append(producer.kind)
        kinds.append(stage.kind)
        n_seen = used.get(stage.engine, 0)
        used[stage.engine] = n_seen + 1
        if n_seen == 0:
            arm_id = stage.engine
        elif n_seen == 1:
            arm_id = "%s-rescue" % stage.engine
        else:
            arm_id = "%s-rescue%d" % (stage.engine, n_seen)
        arms.append(PlanArm(
            arm_id=arm_id, engine=stage.engine, kinds=tuple(kinds),
            head_id=stage.id, when=stage.when,
        ))
    return tuple(arms)


def explain_arms(arms: Tuple[PlanArm, ...],
                 sequential_because: Optional[str]) -> List[str]:
    """The arm block of ``--explain-plan``.

    *sequential_because* is ``None`` when the arms run isolated,
    otherwise the reason they run bare.
    """
    if sequential_because is None:
        tag = "isolated"
        lines = ["arm isolation: on (%d arms)" % len(arms)]
    else:
        tag = "sequential"
        lines = ["arm isolation: off — sequential (%s)"
                 % sequential_because]
    for arm in arms:
        extra = "" if arm.when in (WHEN_ALWAYS, WHEN_ROUTE) \
            else "  when=%s" % arm.when
        lines.append("  arm %-18s %-44s %s%s" % (
            arm.arm_id, "->".join(arm.kinds), tag, extra))
    return lines


def arm_cap(manager, n_pending: int) -> Optional[int]:
    """An arm's rescue reserve: its share of the remaining budget.

    ``None`` (no ceiling) when the question is unbudgeted or this is
    the last arm — the last arm may spend everything left, exactly
    like a bare run.
    """
    limit = manager.config.budget
    if limit is None or n_pending <= 1:
        return None
    remaining = max(0, limit - manager.spent())
    return remaining // n_pending


def record_outcome(sp, answer: Answer, started: Dict[str, int],
                   cancelled: List[Tuple[str, int]],
                   failed_arms: List[str]) -> None:
    """The ``qa.speculate`` span's winner/cancelled/failed-arm attributes."""
    winner = "-"
    if not answer.abstained and (started or cancelled):
        winner = ("text" if answer.system == ANSWER_SYSTEM_RAG
                  else "structured")
    sp.set("winner", winner)
    sp.set("cancelled", len(cancelled))
    sp.set("failed_arms", ",".join(failed_arms) or "-")
    sp.set("cancelled_work", sum(s for _, s in cancelled))
