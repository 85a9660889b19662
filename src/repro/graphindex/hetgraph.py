"""The heterogeneous graph structure with typed traversal.

An undirected multigraph (edges stored both ways) over typed nodes,
with kind-filtered neighbor iteration, BFS with depth bounds, and
simple statistics. Traversal charges ``edges_traversed`` so the E1
bench can report topology-retrieval work.

The graph owns two adjacencies. ``_adjacency`` is the written one: per
node, its incident edges in insertion order. ``_views`` is the read one,
derived from it per node on first read: the ``(edge, neighbor)`` pairs
as an immutable tuple in target-id order (parallel edges to one target
stay in insertion order), plus one filtered tuple per
``(edge kinds, node kind)`` combination asked for. ``neighbors()``, BFS
and ``centrality.pagerank`` all read these tuples; nothing sorts or
filters per call. A mutation drops the views of exactly the nodes whose
incident edges it changed — both endpoints for ``add_edge`` and
``remove_edge``; the node and every neighbor for ``remove_node`` (which
``merge_nodes`` ends with) — and they are derived again on their next
read.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..errors import GraphIndexError
from ..metering import EDGES_TRAVERSED, CostMeter, GLOBAL_METER
from ..obs import span
from .nodes import (
    EDGE_KINDS, NODE_CHUNK, NODE_ENTITY, NODE_KINDS, NODE_RECORD, GraphEdge,
    GraphNode,
)

#: What ``neighbors()`` returns: (edge, neighbor) pairs, target-id order.
NeighborView = Tuple[Tuple[GraphEdge, GraphNode], ...]

_ViewKey = Tuple[Optional[FrozenSet[str]], Optional[str]]

_EDGE_KINDS = frozenset(EDGE_KINDS)


def _view_key(edge_kinds: Optional[Iterable[str]],
              node_kind: Optional[str]) -> _ViewKey:
    """The filter a caller spelled, as the key its view is kept under.

    Unknown kinds match nothing; folding them (out of the edge-kind
    set, onto one never-matching node kind) bounds the number of views
    a node can hold.
    """
    if edge_kinds is not None:
        edge_kinds = _EDGE_KINDS.intersection(edge_kinds)
    if node_kind is not None and node_kind not in NODE_KINDS:
        node_kind = ""
    return edge_kinds, node_kind


class HeterogeneousGraph:
    """Typed undirected multigraph over chunks, entities and records."""

    def __init__(self, meter: Optional[CostMeter] = None):
        self._nodes: Dict[str, GraphNode] = {}
        self._adjacency: Dict[str, List[GraphEdge]] = {}
        # node id -> {(edge kinds or None, node kind or None): view};
        # a node absent here is re-derived on its next read.
        self._views: Dict[str, Dict[_ViewKey, NeighborView]] = {}
        self._edge_keys: Set[tuple] = set()
        self._n_edges = 0
        self._meter = meter if meter is not None else GLOBAL_METER

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: GraphNode) -> bool:
        """Add a node; returns False when the id already exists."""
        if node.node_id in self._nodes:
            return False
        self._nodes[node.node_id] = node
        self._adjacency[node.node_id] = []
        return True

    def add_edge(self, edge: GraphEdge) -> bool:
        """Add an undirected edge; returns False on duplicates.

        Both endpoints must exist. The reverse orientation of the same
        (kind, label) pair counts as a duplicate.
        """
        for endpoint in (edge.source, edge.target):
            if endpoint not in self._nodes:
                raise GraphIndexError("unknown node %r" % endpoint)
        reverse = (edge.target, edge.source, edge.kind, edge.label)
        if edge.key in self._edge_keys or reverse in self._edge_keys:
            return False
        self._edge_keys.add(edge.key)
        self._adjacency[edge.source].append(edge)
        self._views.pop(edge.source, None)
        if edge.source != edge.target:
            mirrored = GraphEdge(
                edge.target, edge.source, edge.kind, edge.label, edge.weight
            )
            self._adjacency[edge.target].append(mirrored)
            self._views.pop(edge.target, None)
        self._n_edges += 1
        return True

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def node(self, node_id: str) -> GraphNode:
        """Fetch a node by id."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise GraphIndexError("no node %r" % node_id) from None

    def has_node(self, node_id: str) -> bool:
        """True when *node_id* exists."""
        return node_id in self._nodes

    def nodes(self, kind: Optional[str] = None) -> List[GraphNode]:
        """All nodes, optionally restricted to one kind, id-sorted."""
        if kind is not None and kind not in NODE_KINDS:
            raise GraphIndexError("unknown node kind %r" % kind)
        out = [
            n for n in self._nodes.values()
            if kind is None or n.kind == kind
        ]
        out.sort(key=lambda n: n.node_id)
        return out

    def neighbors(self, node_id: str,
                  edge_kinds: Optional[Iterable[str]] = None,
                  node_kind: Optional[str] = None) -> NeighborView:
        """(edge, neighbor) pairs, filtered by edge/node kind.

        An immutable tuple in neighbor-id order; parallel edges to one
        neighbor keep their insertion order. Charges one
        ``edges_traversed`` unit per incident edge (filtered out or
        not), in one lump per call.
        """
        adjacency = self._adjacency.get(node_id)
        if adjacency is None:
            raise GraphIndexError("no node %r" % node_id)
        self._meter.charge(EDGES_TRAVERSED, len(adjacency))
        return self._view(node_id, _view_key(edge_kinds, node_kind))

    def _view(self, node_id: str, key: _ViewKey) -> NeighborView:
        """The view of an existing node under *key* (derived if absent)."""
        views = self._views.get(node_id)
        if views is None:
            nodes = self._nodes
            # sorted() is stable: target ties stay in insertion order.
            views = self._views[node_id] = {(None, None): tuple(sorted(
                ((edge, nodes[edge.target])
                 for edge in self._adjacency[node_id]),
                key=lambda pair: pair[0].target,
            ))}
        view = views.get(key)
        if view is None:
            wanted, node_kind = key
            view = views[key] = tuple(
                pair for pair in views[(None, None)]
                if (wanted is None or pair[0].kind in wanted)
                and (node_kind is None or pair[1].kind == node_kind)
            )
        return view

    def degree(self, node_id: str,
               edge_kinds: Optional[Iterable[str]] = None) -> int:
        """Number of incident edges (optionally kind-filtered)."""
        if node_id not in self._adjacency:
            raise GraphIndexError("no node %r" % node_id)
        if edge_kinds is None:
            return len(self._adjacency[node_id])
        wanted = set(edge_kinds)
        return sum(
            1 for e in self._adjacency[node_id] if e.kind in wanted
        )

    @property
    def meter(self) -> CostMeter:
        """The cost meter traversal charges (read-only)."""
        return self._meter

    @property
    def n_nodes(self) -> int:
        """Total node count."""
        return len(self._nodes)

    @property
    def n_edges(self) -> int:
        """Total (undirected) edge count."""
        return self._n_edges

    def edges(self) -> List[GraphEdge]:
        """One orientation of every edge, deterministic order."""
        out = []
        for node_id in sorted(self._adjacency):
            for edge in self._adjacency[node_id]:
                if edge.key in self._edge_keys:
                    out.append(edge)
        return out

    def remove_edge(self, edge: GraphEdge) -> bool:
        """Drop *edge* (either orientation); False when it is absent."""
        key = edge.key
        if key not in self._edge_keys:
            key = (edge.target, edge.source, edge.kind, edge.label)
            if key not in self._edge_keys:
                return False
        self._edge_keys.discard(key)
        for node_id, other in ((edge.source, edge.target),
                               (edge.target, edge.source)):
            self._adjacency[node_id] = [
                e for e in self._adjacency[node_id]
                if (e.target, e.kind, e.label) != (other, edge.kind,
                                                   edge.label)
            ]
            self._views.pop(node_id, None)
        self._n_edges -= 1
        return True

    def remove_node(self, node_id: str) -> GraphNode:
        """Delete a node and every edge incident to it; returns the node."""
        node = self.node(node_id)
        for edge in self._adjacency.pop(node_id):
            other = edge.target
            self._edge_keys.discard(edge.key)
            self._edge_keys.discard((other, node_id, edge.kind, edge.label))
            if other != node_id:
                self._adjacency[other] = [
                    e for e in self._adjacency[other] if e.target != node_id
                ]
                self._views.pop(other, None)
            self._n_edges -= 1
        self._views.pop(node_id, None)
        del self._nodes[node_id]
        return node

    def merge_nodes(self, keep: str, drop: str) -> int:
        """Merge node *drop* into node *keep* (entity resolution).

        Every edge incident to *drop* is re-pointed at *keep*
        (duplicates and would-be self-loops are discarded), then *drop*
        is removed. Returns the number of edges re-pointed.
        """
        if keep == drop:
            raise GraphIndexError("cannot merge a node into itself")
        keep_node = self.node(keep)
        drop_node = self.node(drop)
        if keep_node.kind != drop_node.kind:
            raise GraphIndexError(
                "cannot merge %s node into %s node"
                % (drop_node.kind, keep_node.kind)
            )
        moved = 0
        for edge in list(self._adjacency[drop]):
            if edge.target not in (keep, drop) and self.add_edge(GraphEdge(
                    keep, edge.target, edge.kind, edge.label, edge.weight)):
                moved += 1
        self.remove_node(drop)
        # Record the alias on the surviving node for traceability.
        aliases = keep_node.payload.setdefault("aliases", [])
        if drop_node.label not in aliases:
            aliases.append(drop_node.label)
        return moved

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def bfs(self, sources: Iterable[str], max_depth: int = 2,
            edge_kinds: Optional[Iterable[str]] = None,
            max_nodes: Optional[int] = None) -> Dict[str, int]:
        """Breadth-first expansion from *sources*.

        Returns {node_id: depth} for every reached node (sources at 0).
        ``max_nodes`` bounds the expansion for budgeted retrieval.
        """
        if max_depth < 0:
            raise GraphIndexError("max_depth must be >= 0")
        with span("graph.bfs", max_depth=max_depth) as sp:
            depths = self._bfs(sources, max_depth, edge_kinds, max_nodes)
            sp.set("reached", len(depths))
        return depths

    def _bfs(self, sources: Iterable[str], max_depth: int,
             edge_kinds: Optional[Iterable[str]],
             max_nodes: Optional[int]) -> Dict[str, int]:
        depths: Dict[str, int] = {}
        queue: deque = deque()
        for source in sources:
            if source not in self._nodes:
                continue
            if source not in depths:
                depths[source] = 0
                queue.append(source)
        key = _view_key(edge_kinds, None)
        adjacency, view = self._adjacency, self._view
        # One lump for the whole walk: the sum of what a neighbors()
        # call per expanded node would charge.
        examined = 0
        try:
            while queue:
                current = queue.popleft()
                depth = depths[current] + 1
                if depth > max_depth:
                    continue
                examined += len(adjacency[current])
                for edge, _ in view(current, key):
                    reached = edge.target
                    if reached in depths:
                        continue
                    depths[reached] = depth
                    queue.append(reached)
                    if max_nodes is not None and len(depths) >= max_nodes:
                        return depths
            return depths
        finally:
            self._meter.charge(EDGES_TRAVERSED, examined)

    def connected_components(self) -> List[Set[str]]:
        """All connected components, largest first."""
        seen: Set[str] = set()
        components: List[Set[str]] = []
        for node_id in sorted(self._nodes):
            if node_id in seen:
                continue
            reached = set(self.bfs([node_id], max_depth=self.n_nodes))
            seen |= reached
            components.append(reached)
        components.sort(key=lambda c: (-len(c), sorted(c)[0]))
        return components

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Summary statistics used by benches and EXPERIMENTS.md."""
        kind_counts = {kind: 0 for kind in NODE_KINDS}
        for node in self._nodes.values():
            kind_counts[node.kind] += 1
        return {
            "n_nodes": self.n_nodes,
            "n_edges": self.n_edges,
            "n_chunks": kind_counts[NODE_CHUNK],
            "n_entities": kind_counts[NODE_ENTITY],
            "n_records": kind_counts[NODE_RECORD],
            "n_components": len(self.connected_components()),
        }
