"""Speculation over plan arms: the capability gate and arm bookkeeping.

There is one plan interpreter, :class:`~repro.qa.executor.PlanExecutor`;
this module holds what it consults to decide — per plan — whether the
independent arms of a compiled :class:`~repro.qa.plan.FederatedPlan`
(structured ``SynthesizeSpec→ExecuteTable``, text
``RetrieveTopology→ExecuteText``, and the rescue arms) run as
speculative arms racing on the CostMeter work clock, or bare. The
schedule is **deterministic by construction** in both gate states:

* arms run in fixed plan order, one guarded-call sequence per backend,
  so fault-injection replay is byte-for-byte the same with the gate
  open or closed;
* an arm's *cancellation predicate* is the interpreter's own ``_due``
  condition — a rescue/race arm is cancelled the moment an earlier
  arm's answer clears the confidence bar (a live, non-abstained
  candidate), which is precisely when a closed-gate run skips it;
* the join is the plan's own ``SelectBest`` stage with its fixed
  candidate order, keeping answers **byte-identical** across gate
  states whenever the budget is not binding.

What an open gate *adds* is arm-level failure isolation: each arm runs
inside a :meth:`~repro.resilience.ResilienceManager.arm` scope carrying
a **rescue reserve** (:func:`arm_cap`) — a deterministic share of the
remaining question budget, enforced only after the arm witnesses a
fault. A faulting arm's retry/backoff spiral is cut off at the reserve
(the "work-budget charge" that cancels a loser) so a ``TransientError``
/ ``CircuitOpenError`` / budget-exhaustion in one arm can no longer
starve the surviving arm, which completes cleanly and rescues the
question instead of degrading it.

**Fail-closed capability gating**: :class:`SpeculationGate` loads the
machine-certified stage-interference table
(``analysis/parallel_safety.json``, written by ``repro analyze
--write``) once, at pipeline construction. A plan's arms are isolated
only when *every* cross-arm stage pair is verdict ``safe-parallel``; a
missing table, a missing pair, an ``unknown`` or ``conflicts`` verdict,
a corrupt entry of any shape — or speculation switched off
(:meth:`SpeculationGate.disabled`) — closes the gate, which *is*
sequential execution; nothing raises. Same-engine arms are never
overlapped regardless of the table: their circuit-breaker state and
per-backend fault-injection RNG stream are order-sensitive, which is
exactly why the table marks same-key ``backend-dispatch`` pairs as
conflicts.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..obs import (
    METRIC_SPECULATION_CANCELLED, METRIC_SPECULATION_CANCELLED_WORK,
    METRIC_SPECULATION_RESCUED, METRIC_SPECULATION_WIN, incr, observe,
)
from .answer import ANSWER_SYSTEM_RAG, Answer
from .plan import (
    ROUTE_HYBRID, STAGE_EXECUTE_TABLE, STAGE_EXECUTE_TEXT,
    STAGE_RETRIEVE_TOPOLOGY, STAGE_SYNTHESIZE_SPEC, WHEN_ALWAYS,
    WHEN_ROUTE, FederatedPlan,
)

#: The one verdict that certifies a stage pair for overlap. Kept as a
#: local literal (not imported from :mod:`repro.analysis`) so the QA
#: layer never depends on the analysis layer: the gate consumes the
#: *committed table file*, not the analyzer.
SAFE_PARALLEL = "safe-parallel"

#: Route decisions graded below this confidence race their rescue arms
#: eagerly as hedges (see ``RouteDecision.confidence``).
RACE_CONFIDENCE_BAR = 0.7

#: Repo-relative location of the committed capability table.
TABLE_RELPATH = "analysis/parallel_safety.json"


def default_table_path() -> pathlib.Path:
    """The committed capability table's default location.

    The table lives at the repository root (``analysis/
    parallel_safety.json``), three levels above this package; falls
    back to a cwd-relative path when the package is installed
    elsewhere. Mirrors the ``repro analyze`` CLI's resolution.
    """
    repo = pathlib.Path(__file__).resolve().parents[3]
    candidate = repo / TABLE_RELPATH
    if candidate.parent.exists():
        return candidate
    return pathlib.Path(TABLE_RELPATH)


@dataclass(frozen=True)
class PlanArm:
    """One independent executable arm of a federated plan.

    ``head_id`` names the execute stage that drives the arm's single
    guarded dispatch (producers run jointly with it); ``kinds`` lists
    the stage kinds the arm covers, in order — the units the capability
    table certifies.
    """

    arm_id: str
    engine: str
    kinds: Tuple[str, ...]
    head_id: str
    when: str


@dataclass(frozen=True)
class GateDecision:
    """The gate's per-plan clearance: speculate, race, or fail closed.

    ``pair_verdicts`` carries every cross-arm stage-pair verdict the
    decision consulted (``--explain-plan`` renders them); ``reasons``
    is non-empty exactly when the plan fails closed to sequential.
    """

    speculative: bool
    raced: bool
    reasons: Tuple[str, ...]
    pair_verdicts: Tuple[Tuple[str, str], ...]
    arms: Tuple["PlanArm", ...]


def extract_arms(plan: FederatedPlan) -> Tuple[PlanArm, ...]:
    """The plan's executable arms, in plan (= scheduling) order.

    Each execute stage anchors one arm together with the producer it
    depends on. Arm ids are derived from the engine: the first arm per
    engine is the primary (``structured``/``text``), later ones are
    rescues (``structured-rescue``) — same-engine arms are serialized
    by the scheduler, never overlapped.
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


class SpeculationGate:
    """Fail-closed clearance against the committed capability table.

    Constructed once at pipeline startup from
    ``analysis/parallel_safety.json``. Any defect — missing file,
    unparsable JSON, missing pair, malformed entry, or a verdict other
    than ``safe-parallel`` — denies speculation for the affected plan
    and the executor falls back to sequential execution. The gate never
    raises.
    """

    def __init__(self, pairs: Optional[Dict[str, object]] = None,
                 reason: Optional[str] = None):
        self._pairs = pairs
        self._reason = reason

    @classmethod
    def disabled(cls, reason: str) -> "SpeculationGate":
        """A gate that denies every plan, carrying *reason*."""
        return cls(None, reason)

    @classmethod
    def load(cls, path: Optional[pathlib.Path] = None) -> "SpeculationGate":
        """Load the capability table; fail closed on any defect."""
        table_path = pathlib.Path(path) if path is not None \
            else default_table_path()
        try:
            raw = table_path.read_text(encoding="utf-8")
        except OSError:
            return cls.disabled(
                "capability table %s is missing" % table_path)
        try:
            data = json.loads(raw)
        except ValueError:
            return cls.disabled(
                "capability table %s is unreadable" % table_path)
        pairs = data.get("pairs") if isinstance(data, dict) else None
        if not isinstance(pairs, dict):
            return cls.disabled(
                "capability table %s has no pair verdicts" % table_path)
        return cls(pairs)

    @property
    def enabled(self) -> bool:
        """Whether a table loaded at all (plans may still fail closed)."""
        return self._pairs is not None

    @property
    def reason(self) -> Optional[str]:
        """Why the gate is globally disabled (None when a table loaded)."""
        return self._reason

    def verdict(self, kind_a: str, kind_b: str) -> str:
        """The committed verdict for an unordered stage-kind pair.

        Returns ``absent`` for a missing pair and ``malformed`` for an
        entry that is not a dict with a string verdict — both of which
        the clearance treats as "not safe", failing closed.
        """
        if self._pairs is None:
            return "absent"
        left, right = sorted((kind_a, kind_b))
        entry = self._pairs.get("%s|%s" % (left, right))
        if entry is None:
            return "absent"
        if not isinstance(entry, dict) or not isinstance(
            entry.get("verdict"), str
        ):
            return "malformed"
        return entry["verdict"]

    def clearance(self, plan: FederatedPlan,
                  arms: Tuple[PlanArm, ...]) -> GateDecision:
        """Decide whether *plan*'s arms may overlap.

        Only arm pairs on **different** engines are candidates for
        overlap (same-engine arms are always serialized); every stage
        kind of one against every stage kind of the other must read
        ``safe-parallel`` in the table.
        """
        if self._reason is not None:
            return GateDecision(False, False, (self._reason,), (),
                                arms)
        overlapping = [
            (a, b)
            for i, a in enumerate(arms) for b in arms[i + 1:]
            if a.engine != b.engine
        ]
        if len(arms) < 2 or not overlapping:
            return GateDecision(
                False, False,
                ("plan has fewer than two independent arms",), (), arms)
        verdicts: Dict[str, str] = {}
        for arm_a, arm_b in overlapping:
            for kind_a in arm_a.kinds:
                for kind_b in arm_b.kinds:
                    left, right = sorted((kind_a, kind_b))
                    key = "%s|%s" % (left, right)
                    if key not in verdicts:
                        verdicts[key] = self.verdict(kind_a, kind_b)
        pair_verdicts = tuple(sorted(verdicts.items()))
        reasons = tuple(
            "stage pair %s is %s" % (key, verdict)
            for key, verdict in pair_verdicts
            if verdict != SAFE_PARALLEL
        )
        speculative = not reasons
        raced = speculative and (
            plan.route == ROUTE_HYBRID
            or _route_confidence(plan) < RACE_CONFIDENCE_BAR
        )
        return GateDecision(speculative, raced, reasons, pair_verdicts,
                            arms)


def _route_confidence(plan: FederatedPlan) -> float:
    """The compiled route confidence (1.0 when absent or malformed)."""
    raw = plan.meta("route_confidence", "1.0")
    try:
        return float(raw)
    except ValueError:
        return 1.0


def explain_clearance(decision: GateDecision) -> List[str]:
    """Human-readable gate clearance for ``--explain-plan``."""
    arms = decision.arms
    if decision.speculative:
        mode = "race" if decision.raced else "parallel arms"
        lines = ["speculation: on (%s, %d arms)" % (mode, len(arms))]
    else:
        lines = ["speculation: off — fail closed to sequential (%s)"
                 % "; ".join(decision.reasons)]
    for key, verdict in decision.pair_verdicts:
        lines.append("  pair %-40s %s" % (key, verdict))
    for arm in arms:
        if decision.speculative:
            tag = "races" if decision.raced else "speculates"
        else:
            tag = "sequential"
        extra = "" if arm.when in (WHEN_ALWAYS, WHEN_ROUTE) \
            else "  when=%s" % arm.when
        lines.append("  arm %-18s %-44s %s%s" % (
            arm.arm_id, "->".join(arm.kinds), tag, extra))
    return lines


def arm_cap(manager, n_pending: int) -> Optional[int]:
    """An arm's rescue reserve: its share of the remaining budget.

    ``None`` (no ceiling) when the question is unbudgeted or this is
    the last arm — the last arm may spend everything left, exactly
    like a closed-gate run.
    """
    limit = manager.config.budget
    if limit is None or n_pending <= 1:
        return None
    remaining = max(0, limit - manager.spent())
    return remaining // n_pending


def record_outcome(sp, answer: Answer, started: Dict[str, int],
                   cancelled: List[Tuple[str, int]],
                   failed_arms: List[str]) -> None:
    """Speculation win/loss/rescue metrics + ``qa.speculate`` attributes."""
    for _, spent in cancelled:
        incr(METRIC_SPECULATION_CANCELLED)
        observe(METRIC_SPECULATION_CANCELLED_WORK, spent)
    raced_arms = len(started) + len(cancelled)
    winner = "-"
    if not answer.abstained and raced_arms >= 1:
        incr(METRIC_SPECULATION_WIN)
        winner = ("text" if answer.system == ANSWER_SYSTEM_RAG
                  else "structured")
    if failed_arms and not answer.abstained:
        incr(METRIC_SPECULATION_RESCUED)
    sp.set("winner", winner)
    sp.set("cancelled", len(cancelled))
    sp.set("failed_arms", ",".join(failed_arms) or "-")
    sp.set("cancelled_work", sum(s for _, s in cancelled))
