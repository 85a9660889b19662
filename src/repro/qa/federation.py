"""Federated query routing across heterogeneous engines.

The router classifies each question by which side of the lake can
answer it — structured (schema elements bind), unstructured (no
binding, textual), or hybrid (both) — and dispatches accordingly.
This is the "unified semantic queries across heterogeneous databases"
entry point: one question in, the right engine(s) underneath.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..obs import span
from ..resilience import is_degraded
from ..semql.catalog import SchemaCatalog
from ..semql.intents import analyze
from .answer import ANSWER_SYSTEM_HYBRID, Answer

# Routing constants are single-sourced in repro.qa.plan (the stage
# vocabulary); these aliases keep the historical import path working.
from .plan import (  # lint: ignore[unused-import]
    ROUTE_HYBRID, ROUTE_STRUCTURED, ROUTE_UNSTRUCTURED,
)


@dataclass
class RouteDecision:
    """Where a question was routed and why.

    ``confidence`` grades how decisively the binding evidence selected
    the route (1.0 = unambiguous). It never changes *which* stages a
    plan contains or how they run; the compiled plan carries it as
    signature-excluded ``route_confidence`` metadata.
    """

    route: str
    reason: str
    bound_tables: Tuple[str, ...] = ()
    confidence: float = 1.0


class FederatedRouter:
    """Classify questions against a catalog's binding surface."""

    def __init__(self, catalog: SchemaCatalog):
        self._catalog = catalog

    def route(self, question: str) -> RouteDecision:
        """Pick structured / unstructured / hybrid for *question*."""
        with span("qa.route") as sp:
            decision = self._classify(question)
            sp.set("route", decision.route)
            sp.set("reason", decision.reason)
        return decision

    def _classify(self, question: str) -> RouteDecision:
        frame = analyze(question)
        value_hits = self._catalog.find_values(question)
        bound_tables = tuple(sorted({hit.table for hit in value_hits}))

        metric_bound = False
        for term in frame.metric_terms:
            if self._catalog.resolve_column(term):
                metric_bound = True
                break

        if frame.is_aggregate and metric_bound:
            if value_hits or frame.quarter or frame.comparisons:
                return RouteDecision(
                    ROUTE_STRUCTURED,
                    "aggregate over bound metric with bound filters",
                    bound_tables, confidence=0.95,
                )
            return RouteDecision(
                ROUTE_STRUCTURED, "aggregate over bound metric",
                bound_tables, confidence=0.65,
            )
        if metric_bound and (value_hits or frame.comparisons):
            return RouteDecision(
                ROUTE_HYBRID, "metric binds but question is not aggregate",
                bound_tables, confidence=0.7,
            )
        if value_hits:
            return RouteDecision(
                ROUTE_HYBRID, "entities bind but no metric column does",
                bound_tables, confidence=0.6,
            )
        return RouteDecision(
            ROUTE_UNSTRUCTURED, "no schema element binds", (),
            confidence=0.75,
        )


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
