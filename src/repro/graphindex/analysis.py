"""Diagnostic analysis of a built heterogeneous graph.

Operational tooling for index quality: hub entities, relation-cue
distribution, and — the paper's central integration measure — how many
entities *bridge modalities* (are reachable from both text chunks and
structured records). A lake whose entities never bridge gains nothing
from unification.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .hetgraph import HeterogeneousGraph
from .nodes import EDGE_DESCRIBES, EDGE_MENTIONS, EDGE_RELATES, NODE_ENTITY


@dataclass
class BridgeReport:
    """Cross-modal linking summary."""

    n_entities: int
    text_only: int
    record_only: int
    bridging: int
    isolated: int

    @property
    def bridge_ratio(self) -> float:
        """Fraction of entities linking text to structured records."""
        if self.n_entities == 0:
            return 0.0
        return self.bridging / self.n_entities


def bridge_report(graph: HeterogeneousGraph) -> BridgeReport:
    """Classify each entity by the modalities it connects.

    An entity "bridges" when it has at least one MENTIONS edge (text
    side) and one DESCRIBES edge (structured side).
    """
    text_only = record_only = bridging = isolated = 0
    entities = graph.nodes(NODE_ENTITY)
    for entity in entities:
        has_text = graph.degree(entity.node_id,
                                edge_kinds=[EDGE_MENTIONS]) > 0
        has_record = graph.degree(entity.node_id,
                                  edge_kinds=[EDGE_DESCRIBES]) > 0
        if has_text and has_record:
            bridging += 1
        elif has_text:
            text_only += 1
        elif has_record:
            record_only += 1
        else:
            isolated += 1
    return BridgeReport(
        n_entities=len(entities), text_only=text_only,
        record_only=record_only, bridging=bridging, isolated=isolated,
    )


def hub_entities(graph: HeterogeneousGraph,
                 top: int = 10) -> List[Tuple[str, int]]:
    """The *top* highest-degree entities (label, degree)."""
    if top < 1:
        raise ValueError("top must be >= 1")
    scored = [
        (node.label, graph.degree(node.node_id))
        for node in graph.nodes(NODE_ENTITY)
    ]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:top]


def relation_histogram(graph: HeterogeneousGraph) -> Dict[str, int]:
    """Count of RELATES edges per cue label ("purchas", "increas"...)."""
    counts: Counter = Counter()
    for edge in graph.edges():
        if edge.kind == EDGE_RELATES and edge.label:
            counts[edge.label] += 1
    return dict(counts)


def describe(graph: HeterogeneousGraph) -> str:
    """Multi-line human-readable index health report."""
    stats = graph.stats()
    bridges = bridge_report(graph)
    hubs = hub_entities(graph, top=5)
    lines = [
        "nodes=%d edges=%d (chunks=%d entities=%d records=%d, "
        "components=%d)" % (
            stats["n_nodes"], stats["n_edges"], stats["n_chunks"],
            stats["n_entities"], stats["n_records"],
            stats["n_components"],
        ),
        "bridging entities: %d/%d (%.0f%%) — text-only %d, "
        "record-only %d, isolated %d" % (
            bridges.bridging, bridges.n_entities,
            100 * bridges.bridge_ratio, bridges.text_only,
            bridges.record_only, bridges.isolated,
        ),
        "top hubs: " + ", ".join(
            "%s(%d)" % (label, degree) for label, degree in hubs
        ),
    ]
    cues = relation_histogram(graph)
    if cues:
        top_cues = sorted(cues.items(), key=lambda kv: -kv[1])[:5]
        lines.append("relation cues: " + ", ".join(
            "%s×%d" % (label, count) for label, count in top_cues
        ))
    return "\n".join(lines)
