"""Tests for node merging and alias resolution."""

import pytest

from repro.errors import GraphIndexError
from repro.metering import CostMeter
from repro.graphindex import (
    EDGE_DESCRIBES, EDGE_MENTIONS, GraphEdge, GraphNode,
    HeterogeneousGraph, NODE_CHUNK, NODE_ENTITY, NODE_RECORD,
    find_alias_pairs, resolve_aliases,
)
from repro.slm.embeddings import EmbeddingModel


def entity(g, label):
    node_id = "entity:%s" % label
    g.add_node(GraphNode(node_id, NODE_ENTITY, label))
    return node_id


def chunk(g, cid):
    node_id = "chunk:%s" % cid
    g.add_node(GraphNode(node_id, NODE_CHUNK, cid))
    return node_id


class TestMergeNodes:
    def make(self):
        g = HeterogeneousGraph(meter=CostMeter())
        a = entity(g, "alpha widget")
        b = entity(g, "alpha widget 2024")
        c1, c2 = chunk(g, "c1"), chunk(g, "c2")
        g.add_edge(GraphEdge(c1, a, EDGE_MENTIONS))
        g.add_edge(GraphEdge(c2, b, EDGE_MENTIONS))
        g.add_edge(GraphEdge(c1, b, EDGE_MENTIONS))
        return g, a, b, c1, c2

    def test_edges_repointed(self):
        g, a, b, c1, c2 = self.make()
        g.merge_nodes(a, b)
        assert not g.has_node(b)
        neighbors = {n.node_id for _, n in g.neighbors(a)}
        assert neighbors == {c1, c2}

    def test_duplicate_edges_collapse(self):
        g, a, b, c1, _ = self.make()
        before = g.n_edges  # 3 edges
        g.merge_nodes(a, b)
        # c1—a existed and c1—b repoints onto it: collapses to one.
        assert g.n_edges == 2
        assert before == 3

    def test_alias_recorded(self):
        g, a, b, _, _ = self.make()
        g.merge_nodes(a, b)
        assert "alpha widget 2024" in g.node(a).payload["aliases"]

    def test_self_merge_rejected(self):
        g, a, _, _, _ = self.make()
        with pytest.raises(GraphIndexError):
            g.merge_nodes(a, a)

    def test_kind_mismatch_rejected(self):
        g, a, _, c1, _ = self.make()
        with pytest.raises(GraphIndexError):
            g.merge_nodes(a, c1)

    def test_self_loop_avoided(self):
        g = HeterogeneousGraph(meter=CostMeter())
        a = entity(g, "x")
        b = entity(g, "y")
        g.add_edge(GraphEdge(a, b, EDGE_MENTIONS))
        g.merge_nodes(a, b)
        assert g.n_edges == 0

    def test_self_loop_on_the_dropped_node_is_discarded(self):
        # y-y used to be re-added as x-y before y was deleted: an edge
        # to a node that no longer exists, n_edges one too high.
        g = HeterogeneousGraph(meter=CostMeter())
        a, b, c = entity(g, "x"), entity(g, "y"), entity(g, "z")
        g.add_edge(GraphEdge(b, b, EDGE_MENTIONS))
        g.add_edge(GraphEdge(b, c, EDGE_MENTIONS))
        assert g.merge_nodes(a, b) == 1
        assert [n.node_id for _, n in g.neighbors(a)] == [c]
        assert g.n_edges == 1 == len(g.edges())
        assert all(g.has_node(e.target) for e in g.edges())


class TestAliasDiscovery:
    def make(self):
        g = HeterogeneousGraph(meter=CostMeter())
        entity(g, "alpha widget")
        entity(g, "alpha widget 2024 model")
        entity(g, "beta gadget")
        entity(g, "acme")
        return g

    def test_subset_pair_found(self):
        pairs = find_alias_pairs(self.make())
        assert any(
            p.keep == "entity:alpha widget"
            and p.drop == "entity:alpha widget 2024 model"
            for p in pairs
        )

    def test_unrelated_not_paired(self):
        pairs = find_alias_pairs(self.make())
        ids = {(p.keep, p.drop) for p in pairs}
        assert not any("beta" in k and "alpha" in d for k, d in ids)
        assert not any("acme" in k or "acme" in d for k, d in ids)

    def test_embedder_gate(self):
        g = HeterogeneousGraph(meter=CostMeter())
        entity(g, "alpha widget")
        entity(g, "alpha widget 2024 model")
        embedder = EmbeddingModel(dim=64, meter=CostMeter())
        pairs = find_alias_pairs(g, embedder=embedder, min_cosine=0.4)
        assert pairs
        strict = find_alias_pairs(g, embedder=embedder, min_cosine=0.999)
        assert not strict


class TestResolveAliases:
    def test_merge_applied(self):
        g = HeterogeneousGraph(meter=CostMeter())
        a = entity(g, "alpha widget")
        b = entity(g, "alpha widget 2024")
        c = chunk(g, "c1")
        r = "record:1"
        g.add_node(GraphNode(r, NODE_RECORD, "row"))
        g.add_edge(GraphEdge(c, b, EDGE_MENTIONS))
        g.add_edge(GraphEdge(r, a, EDGE_DESCRIBES))
        assert resolve_aliases(g) == 1
        # The record-linked and text-linked halves now unite: the kept
        # entity bridges modalities.
        assert g.degree(a, edge_kinds=[EDGE_MENTIONS]) == 1
        assert g.degree(a, edge_kinds=[EDGE_DESCRIBES]) == 1

    def test_transitive_chain(self):
        g = HeterogeneousGraph(meter=CostMeter())
        entity(g, "alpha")
        entity(g, "alpha widget")
        entity(g, "alpha widget 2024")
        merges = resolve_aliases(g)
        assert merges == 2
        assert len(g.nodes(NODE_ENTITY)) == 1

    def test_idempotent(self):
        g = HeterogeneousGraph(meter=CostMeter())
        entity(g, "alpha widget")
        entity(g, "alpha widget 2024")
        assert resolve_aliases(g) == 1
        assert resolve_aliases(g) == 0
