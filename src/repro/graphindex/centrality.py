"""Centrality measures for topology-enhanced retrieval.

The paper's Section III.B prioritizes nodes by "centrality and
connectivity". PageRank is computed natively (power iteration), so
the core library has no networkx dependency.
PageRank is the one index-maintenance step that stays corpus-wide on
every write (a new node moves every rank), so its passes run over
numpy arrays — with the very floats of the scalar loop it replaced.
"""

from __future__ import annotations

import math
from typing import Dict

import numpy as np

from ..errors import GraphIndexError
from ..metering import EDGES_TRAVERSED
from .hetgraph import HeterogeneousGraph


def pagerank(graph: HeterogeneousGraph, damping: float = 0.85,
             max_iterations: int = 60, tolerance: float = 1e-8,
             weight_by_edge: bool = True) -> Dict[str, float]:
    """Weighted PageRank via power iteration.

    Isolated nodes keep the teleport mass. Deterministic given the
    graph (iteration order is id-sorted).

    The graph's neighbor views (the tuples ``graph.neighbors()``
    returns) are read once per call into integer-indexed arrays; every
    pass then runs as a handful of array operations. A node *pulls*
    ``teleport + Σ share[neighbor] · weight`` over its view, whose id
    order is the order in which a push formulation's id-sorted outer
    loop would add the contributions; ``np.bincount`` accumulates its
    weights strictly in input order, so with one leading slot per node
    carrying the teleport term, the view-ordered contributions behind
    it and the dangling spread added last, every rank is the very
    float the per-edge scalar loop computes (kept as the reference in
    ``tests/test_graphindex.py``). This relies on an undirected edge
    weighing the same from both ends, which ``add_edge`` guarantees.
    Each pass charges the ``edges_traversed`` it walks to
    ``graph.meter`` in one lump — the same total as one ``neighbors()``
    call per non-dangling node.
    """
    if not 0.0 < damping < 1.0:
        raise GraphIndexError("damping must be in (0, 1)")
    nodes = [n.node_id for n in graph.nodes()]
    n = len(nodes)
    if n == 0:
        return {}
    position = {node_id: i for i, node_id in enumerate(nodes)}
    # Slots 0..n-1 carry the teleport term; the edge slots follow,
    # node by node in view order.
    pullers = list(range(n))
    sources = []
    edge_weights = []
    out_weight = []
    edges_per_pass = 0
    for i, node_id in enumerate(nodes):
        view = graph.neighbors(node_id)
        weights = [edge.weight for edge, _ in view]
        total_out = sum(weights) if weight_by_edge else float(len(view))
        out_weight.append(total_out)
        if total_out != 0.0:
            edges_per_pass += len(view)
        pullers.extend([i] * len(view))
        sources.extend([position[edge.target] for edge, _ in view])
        edge_weights.extend(weights)
    pullers = np.array(pullers, dtype=np.intp)
    sources = np.array(sources, dtype=np.intp)
    edge_weights = np.array(edge_weights, dtype=np.float64)
    out_weight = np.array(out_weight, dtype=np.float64)
    # A dangling node (no edges, or all of weight 0) spreads its rank
    # over every node instead of along edges: its share is zeroed every
    # pass, so its divisor only has to be non-zero.
    dangling = np.flatnonzero(out_weight == 0.0)
    out_weight[dangling] = 1.0
    teleport = (1.0 - damping) / n
    pulled = np.full(n + len(sources), teleport)
    rank = np.full(n, 1.0 / n)
    for _ in range(max_iterations):
        graph.meter.charge(EDGES_TRAVERSED, edges_per_pass)
        # What a unit of edge weight carries out of each node this pass.
        share = damping * rank / out_weight
        share[dangling] = 0.0
        # Plain += on purpose: sum() compensates float addition from
        # Python 3.12 on, which would move the ranks in the last digit.
        dangling_mass = 0.0
        for mass in rank[dangling].tolist():
            dangling_mass += mass
        spread = damping * dangling_mass / n
        if weight_by_edge:
            np.multiply(share[sources], edge_weights, out=pulled[n:])
        else:
            pulled[n:] = share[sources]
        new_rank = np.bincount(pullers, weights=pulled) + spread
        delta = sum(np.abs(new_rank - rank).tolist())
        rank = new_rank
        if delta < tolerance:
            break
    return dict(zip(nodes, rank.tolist()))


def normalize_scores(scores: Dict[str, float]) -> Dict[str, float]:
    """Scale a score dict to [0, 1] (constant dicts map to 0)."""
    if not scores:
        return {}
    low = min(scores.values())
    high = max(scores.values())
    if math.isclose(high, low):
        return {k: 0.0 for k in scores}
    return {k: (v - low) / (high - low) for k, v in scores.items()}
