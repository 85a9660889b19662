"""Tests for graph diagnostic analysis."""

import pytest

from repro.metering import CostMeter
from repro.graphindex import (
    BridgeReport, EDGE_DESCRIBES, EDGE_MENTIONS, EDGE_RELATES, GraphEdge,
    GraphNode, HeterogeneousGraph, NODE_CHUNK, NODE_ENTITY, NODE_RECORD,
    bridge_report, describe, hub_entities,
    relation_histogram,
)


def make_graph():
    g = HeterogeneousGraph(meter=CostMeter())
    g.add_node(GraphNode("chunk:c1", NODE_CHUNK, "c1"))
    g.add_node(GraphNode("record:r1", NODE_RECORD, "r1"))
    g.add_node(GraphNode("entity:bridge", NODE_ENTITY, "bridge"))
    g.add_node(GraphNode("entity:textish", NODE_ENTITY, "textish"))
    g.add_node(GraphNode("entity:rowish", NODE_ENTITY, "rowish"))
    g.add_node(GraphNode("entity:orphan", NODE_ENTITY, "orphan"))
    g.add_edge(GraphEdge("chunk:c1", "entity:bridge", EDGE_MENTIONS))
    g.add_edge(GraphEdge("record:r1", "entity:bridge", EDGE_DESCRIBES))
    g.add_edge(GraphEdge("chunk:c1", "entity:textish", EDGE_MENTIONS))
    g.add_edge(GraphEdge("record:r1", "entity:rowish", EDGE_DESCRIBES))
    g.add_edge(GraphEdge("entity:bridge", "entity:textish", EDGE_RELATES,
                         label="purchas"))
    g.add_edge(GraphEdge("entity:bridge", "entity:rowish", EDGE_RELATES,
                         label="purchas"))
    return g


class TestBridgeReport:
    def test_classification(self):
        report = bridge_report(make_graph())
        assert report.n_entities == 4
        assert report.bridging == 1
        assert report.text_only == 1
        assert report.record_only == 1
        assert report.isolated == 1

    def test_bridge_ratio(self):
        assert bridge_report(make_graph()).bridge_ratio == 0.25

    def test_empty_graph(self):
        g = HeterogeneousGraph(meter=CostMeter())
        report = bridge_report(g)
        assert report.n_entities == 0 and report.bridge_ratio == 0.0


class TestHubsAndHistograms:
    def test_hub_entities_ordered(self):
        hubs = hub_entities(make_graph(), top=2)
        assert hubs[0] == ("bridge", 4)

    def test_hub_top_validation(self):
        with pytest.raises(ValueError):
            hub_entities(make_graph(), top=0)

    def test_relation_histogram(self):
        assert relation_histogram(make_graph()) == {"purchas": 2}

    def test_describe_mentions_key_facts(self):
        text = describe(make_graph())
        assert "bridging entities: 1/4" in text
        assert "bridge(4)" in text
        assert "purchas×2" in text


class TestOnBuiltPipeline:
    def test_real_lake_bridges(self):
        from repro.bench import LakeSpec, generate_ecommerce_lake
        from repro.bench.runner import build_hybrid_system

        lake = generate_ecommerce_lake(LakeSpec(n_products=6, seed=3))
        _, pipeline = build_hybrid_system(lake)
        report = bridge_report(pipeline.graph)
        # Products exist in both reviews and the record projection, so
        # a healthy lake bridges a meaningful share of entities.
        assert report.bridging >= 1
        assert report.bridge_ratio > 0.05
