"""Save/load the heterogeneous graph as JSON.

The index is the expensive artifact of the pipeline (it embodies all
tagging work); persisting it lets a deployment build once and query
many times — the paper's edge-device story.
"""

from __future__ import annotations

import json
from typing import Optional

from ..errors import GraphIndexError
from ..metering import CostMeter
from .hetgraph import HeterogeneousGraph
from .nodes import GraphEdge, GraphNode

FORMAT_VERSION = 1


def graph_to_json(graph: HeterogeneousGraph) -> str:
    """Serialize *graph* to a JSON string."""
    payload = {
        "version": FORMAT_VERSION,
        "nodes": [
            {
                "id": node.node_id,
                "kind": node.kind,
                "label": node.label,
                "payload": node.payload,
            }
            for node in graph.nodes()
        ],
        "edges": [
            {
                "source": edge.source,
                "target": edge.target,
                "kind": edge.kind,
                "label": edge.label,
                "weight": edge.weight,
            }
            for edge in graph.edges()
        ],
    }
    return json.dumps(payload, sort_keys=True)


def graph_from_json(text: str,
                    meter: Optional[CostMeter] = None) -> HeterogeneousGraph:
    """Rebuild a graph from :func:`graph_to_json` output."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphIndexError("invalid graph JSON: %s" % exc) from exc
    if not isinstance(payload, dict) or "nodes" not in payload:
        raise GraphIndexError("graph JSON missing 'nodes'")
    version = payload.get("version")
    if version != FORMAT_VERSION:
        raise GraphIndexError(
            "unsupported graph format version %r (want %d)"
            % (version, FORMAT_VERSION)
        )
    graph = HeterogeneousGraph(meter=meter)
    for node in payload["nodes"]:
        graph.add_node(GraphNode(
            node["id"], node["kind"], node["label"],
            payload=node.get("payload") or {},
        ))
    for edge in payload.get("edges", []):
        graph.add_edge(GraphEdge(
            edge["source"], edge["target"], edge["kind"],
            label=edge.get("label"), weight=edge.get("weight", 1.0),
        ))
    return graph
