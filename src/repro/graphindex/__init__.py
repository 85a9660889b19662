"""Semantic-aware heterogeneous graph indexing (paper Section III.A)."""

from .analysis import (
    BridgeReport, bridge_report, describe, hub_entities, relation_histogram,
)
from .builder import BuilderConfig, GraphIndexBuilder
from .centrality import normalize_scores, pagerank
from .hetgraph import HeterogeneousGraph
from .nodes import (
    EDGE_CO_OCCURS, EDGE_DESCRIBES, EDGE_MENTIONS, EDGE_NEXT, EDGE_RELATES,
    NODE_CHUNK, NODE_ENTITY, NODE_RECORD, GraphEdge, GraphNode, chunk_key,
    entity_key, record_key,
)
from .persistence import graph_from_json, graph_to_json
from .resolution import AliasPair, find_alias_pairs, resolve_aliases

__all__ = [
    "BridgeReport", "bridge_report", "describe", "hub_entities",
    "relation_histogram",
    "BuilderConfig", "GraphIndexBuilder",
    "normalize_scores", "pagerank",
    "HeterogeneousGraph",
    "EDGE_CO_OCCURS", "EDGE_DESCRIBES", "EDGE_MENTIONS", "EDGE_NEXT",
    "EDGE_RELATES",
    "NODE_CHUNK", "NODE_ENTITY", "NODE_RECORD",
    "GraphEdge", "GraphNode", "chunk_key", "entity_key", "record_key",
    "graph_from_json", "graph_to_json",
    "AliasPair", "find_alias_pairs", "resolve_aliases",
]
