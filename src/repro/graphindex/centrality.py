"""Centrality measures for topology-enhanced retrieval.

The paper's Section III.B prioritizes nodes by "centrality and
connectivity". Degree centrality and PageRank are computed natively
(power iteration) so the core library has no hard networkx dependency.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional

from ..errors import GraphIndexError
from ..metering import EDGES_TRAVERSED
from .hetgraph import HeterogeneousGraph


def degree_centrality(graph: HeterogeneousGraph) -> Dict[str, float]:
    """Degree / (n - 1) per node (0 for a singleton graph)."""
    n = graph.n_nodes
    if n <= 1:
        return {node.node_id: 0.0 for node in graph.nodes()}
    return {
        node.node_id: graph.degree(node.node_id) / (n - 1)
        for node in graph.nodes()
    }


def pagerank(graph: HeterogeneousGraph, damping: float = 0.85,
             max_iterations: int = 60, tolerance: float = 1e-8,
             weight_by_edge: bool = True) -> Dict[str, float]:
    """Weighted PageRank via power iteration.

    Isolated nodes keep the teleport mass. Deterministic given the
    graph (iteration order is id-sorted).

    Every pass reads the graph's own neighbor views (the tuples
    ``graph.neighbors()`` returns, fetched once): a node *pulls* its
    new rank from its view, which lists the contributing neighbors in
    id order — the order in which the push formulation's id-sorted
    outer loop adds them — so the floats are the same, with one
    accumulator store per node instead of one per edge. This relies on
    an undirected edge weighing the same from both ends, which
    ``add_edge`` guarantees. Each pass charges the ``edges_traversed``
    it walks to ``graph.meter`` in one lump — the same total as one
    ``neighbors()`` call per non-dangling node.
    """
    if not 0.0 < damping < 1.0:
        raise GraphIndexError("damping must be in (0, 1)")
    nodes = [n.node_id for n in graph.nodes()]
    n = len(nodes)
    if n == 0:
        return {}
    views = [(node_id, graph.neighbors(node_id)) for node_id in nodes]
    # A dangling node (no edges, or all of weight 0) spreads its rank
    # over every node instead of along edges.
    out_weight: Dict[str, float] = {}
    edges_per_pass = 0
    for node_id, view in views:
        if weight_by_edge:
            out_weight[node_id] = sum(e.weight for e, _ in view)
        else:
            out_weight[node_id] = float(len(view))
        if out_weight[node_id] != 0.0:
            edges_per_pass += len(view)
    rank = dict.fromkeys(nodes, 1.0 / n)
    teleport = (1.0 - damping) / n
    for _ in range(max_iterations):
        graph.meter.charge(EDGES_TRAVERSED, edges_per_pass)
        # What a unit of edge weight carries out of each node this pass.
        share: Dict[str, float] = {}
        # Plain += on purpose: sum() compensates float addition from
        # Python 3.12 on, which would move the ranks in the last digit.
        dangling_mass = 0.0
        for node_id, total_out in out_weight.items():
            if total_out == 0.0:
                share[node_id] = 0.0
                dangling_mass += rank[node_id]
            else:
                share[node_id] = damping * rank[node_id] / total_out
        spread = damping * dangling_mass / n
        new_rank: Dict[str, float] = {}
        for node_id, view in views:
            pulled = teleport
            if weight_by_edge:
                for edge, _ in view:
                    pulled += share[edge.target] * edge.weight
            else:
                for edge, _ in view:
                    pulled += share[edge.target]
            new_rank[node_id] = pulled + spread
        delta = sum(abs(new - old) for new, old
                    in zip(new_rank.values(), rank.values()))
        rank = new_rank
        if delta < tolerance:
            break
    return rank


def harmonic_centrality(graph: HeterogeneousGraph,
                        max_depth: int = 4,
                        nodes: Optional[Iterable[str]] = None) -> Dict[str, float]:
    """Truncated harmonic centrality: sum of 1/d over BFS within depth.

    A cheap connectivity prior — nodes reaching many others in few hops
    score high; computed only for *nodes* when given (retrieval scores
    candidates lazily).
    """
    targets = list(nodes) if nodes is not None else [
        n.node_id for n in graph.nodes()
    ]
    out: Dict[str, float] = {}
    for node_id in targets:
        if not graph.has_node(node_id):
            raise GraphIndexError("no node %r" % node_id)
        depths = graph.bfs([node_id], max_depth=max_depth)
        out[node_id] = sum(
            1.0 / d for d in depths.values() if d > 0
        )
    return out


def normalize_scores(scores: Dict[str, float]) -> Dict[str, float]:
    """Scale a score dict to [0, 1] (constant dicts map to 0)."""
    if not scores:
        return {}
    low = min(scores.values())
    high = max(scores.values())
    if math.isclose(high, low):
        return {k: 0.0 for k in scores}
    return {k: (v - low) / (high - low) for k, v in scores.items()}
