"""Federated query routing across heterogeneous engines.

The router classifies each question by which side of the lake can
answer it — structured (schema elements bind), unstructured (no
binding, textual), or hybrid (both) — and dispatches accordingly.
This is the "unified semantic queries across heterogeneous databases"
entry point: one question in, the right engine(s) underneath.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..obs import span
from ..resilience import is_degraded
from ..semql.catalog import QuestionFrame, SchemaCatalog
from .answer import ANSWER_SYSTEM_HYBRID, Answer

# Routing constants are single-sourced in repro.qa.plan (the stage
# vocabulary); these aliases keep the historical import path working.
from .plan import (  # lint: ignore[unused-import]
    ROUTE_HYBRID, ROUTE_STRUCTURED, ROUTE_UNSTRUCTURED,
)


@dataclass(frozen=True)
class RouteDecision:
    """Where a question was routed and why.

    ``confidence`` grades how decisively the binding evidence selected
    the route (1.0 = unambiguous). It never changes *which* stages a
    plan contains or how they run; the compiled plan carries it as
    signature-excluded ``route_confidence`` metadata. ``frame`` is the
    question's analysis the route was classified from; the plan carries
    it to synthesis, and it takes no part in equality.
    """

    route: str
    reason: str
    bound_tables: Tuple[str, ...] = ()
    confidence: float = 1.0
    frame: Optional[QuestionFrame] = field(default=None, compare=False,
                                           repr=False)


class FederatedRouter:
    """Classify questions against a catalog's binding surface."""

    def __init__(self, catalog: SchemaCatalog):
        self._catalog = catalog

    def route(self, question: str) -> RouteDecision:
        """Pick structured / unstructured / hybrid for *question*."""
        with span("qa.route") as sp:
            frame = self._catalog.frame(question)
            route, reason, confidence = _classify(frame)
            decision = RouteDecision(
                route, reason,
                tuple(sorted({hit.table for hit in frame.value_hits})),
                confidence, frame,
            )
            sp.set("route", decision.route)
            sp.set("reason", decision.reason)
        return decision


def _classify(frame: QuestionFrame) -> Tuple[str, str, float]:
    """(route, reason, confidence) for an analysed question."""
    intent = frame.intent
    value_hits = frame.value_hits
    metric_bound = bool(frame.metric_candidates)
    if intent.is_aggregate and metric_bound:
        if value_hits or intent.quarter or intent.comparisons:
            return (ROUTE_STRUCTURED,
                    "aggregate over bound metric with bound filters", 0.95)
        return ROUTE_STRUCTURED, "aggregate over bound metric", 0.65
    if metric_bound and (value_hits or intent.comparisons):
        return (ROUTE_HYBRID, "metric binds but question is not aggregate",
                0.7)
    if value_hits:
        return ROUTE_HYBRID, "entities bind but no metric column does", 0.6
    return ROUTE_UNSTRUCTURED, "no schema element binds", 0.75


def best_answer(answers: List[Answer]) -> Answer:
    """Pick the most trustworthy non-abstaining answer.

    Tie-break order, applied left to right: **grounded** beats
    ungrounded, then higher **confidence** wins, then a clean answer
    beats one produced under **degradation** (absorbed backend faults;
    see ``docs/resilience.md``). All-abstain input returns the first
    abstention; an empty candidate list returns a typed abstention
    rather than raising, so a pipeline whose every engine is down
    still answers.
    """
    if not answers:
        return Answer.abstain(
            ANSWER_SYSTEM_HYBRID, "no candidate answers (engines "
            "unavailable or exhausted)",
        )
    live = [a for a in answers if not a.abstained]
    if not live:
        return answers[0]
    live.sort(
        key=lambda a: (a.grounded, a.confidence, not is_degraded(a)),
        reverse=True,
    )
    return live[0]
