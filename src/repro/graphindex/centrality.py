"""Centrality measures for topology-enhanced retrieval.

The paper's Section III.B prioritizes nodes by "centrality and
connectivity". Degree centrality and PageRank are computed natively
(power iteration) so the core library has no hard networkx dependency.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

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

    The adjacency is read through ``graph.neighbors()`` once and kept
    as per-node ``(target index, weight)`` lists in the order it yields
    them; every pass sums in that order. Each pass charges the
    ``edges_traversed`` it walks to ``graph.meter`` in one lump — the
    same total as one ``neighbors()`` call per non-dangling node.
    """
    if not 0.0 < damping < 1.0:
        raise GraphIndexError("damping must be in (0, 1)")
    nodes = [n.node_id for n in graph.nodes()]
    n = len(nodes)
    if n == 0:
        return {}
    index = {node_id: i for i, node_id in enumerate(nodes)}
    # Per node with outgoing weight: (own index, out weight, targets).
    # A dangling node (no edges, or all of weight 0) has no entry.
    spreading: List[Tuple[int, float, List[Tuple[int, float]]]] = []
    dangling: List[int] = []
    edges_per_pass = 0
    for i, node_id in enumerate(nodes):
        neighbors = graph.neighbors(node_id)
        if weight_by_edge:
            total_out = sum(e.weight for e, _ in neighbors)
        else:
            total_out = float(len(neighbors))
        if total_out == 0.0:
            dangling.append(i)
            continue
        spreading.append((i, total_out, [
            (index[neighbor.node_id],
             edge.weight if weight_by_edge else 1.0)
            for edge, neighbor in neighbors
        ]))
        edges_per_pass += len(neighbors)
    rank = [1.0 / n] * n
    teleport = (1.0 - damping) / n
    for _ in range(max_iterations):
        graph.meter.charge(EDGES_TRAVERSED, edges_per_pass)
        new_rank = [teleport] * n
        for i, total_out, targets in spreading:
            share = damping * rank[i] / total_out
            for target, w in targets:
                new_rank[target] += share * w
        # Plain += on purpose: sum() compensates float addition from
        # Python 3.12 on, which would move the ranks in the last digit.
        dangling_mass = 0.0
        for i in dangling:
            dangling_mass += rank[i]
        if dangling_mass > 0.0:
            spread = damping * dangling_mass / n
            for i in range(n):
                new_rank[i] += spread
        delta = sum(abs(new - old) for new, old in zip(new_rank, rank))
        rank = new_rank
        if delta < tolerance:
            break
    return dict(zip(nodes, rank))


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
