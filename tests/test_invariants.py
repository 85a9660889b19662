"""Property-based invariant tests across subsystems."""

import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.metering import CostMeter
from repro.entropy import SemanticEntropyEstimator, auroc
from repro.graphindex import (
    EDGE_CO_OCCURS, EDGE_MENTIONS, GraphEdge, GraphNode,
    HeterogeneousGraph, NODE_CHUNK, NODE_ENTITY, graph_from_json,
    graph_to_json, pagerank,
)
from repro.retrieval.metrics import (
    ndcg_at_k, precision_at_k, recall_at_k, reciprocal_rank,
)
from repro.slm.entailment import EntailmentJudge
from repro.slm.generator import Generation
from repro.storage.types import sort_key

# ----------------------------------------------------------------------
# Graph invariants
# ----------------------------------------------------------------------
edge_list = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9)),
    min_size=0, max_size=30,
)


def build_graph(edges):
    g = HeterogeneousGraph(meter=CostMeter())
    for i in range(10):
        kind = NODE_CHUNK if i % 2 == 0 else NODE_ENTITY
        g.add_node(GraphNode("n%d" % i, kind, "n%d" % i))
    for a, b in edges:
        kind = EDGE_MENTIONS if (a + b) % 2 else EDGE_CO_OCCURS
        g.add_edge(GraphEdge("n%d" % a, "n%d" % b, kind))
    return g


class TestGraphInvariants:
    @given(edges=edge_list)
    @settings(max_examples=50, deadline=None)
    def test_degree_sum_is_twice_edges(self, edges):
        g = build_graph(edges)
        loops = sum(
            1 for e in g.edges() if e.source == e.target
        )
        degree_sum = sum(g.degree(n.node_id) for n in g.nodes())
        assert degree_sum == 2 * g.n_edges - loops

    @given(edges=edge_list)
    @settings(max_examples=50, deadline=None)
    def test_bfs_symmetric_reachability(self, edges):
        g = build_graph(edges)
        depths_a = g.bfs(["n0"], max_depth=10)
        for target in depths_a:
            back = g.bfs([target], max_depth=10)
            assert "n0" in back

    @given(edges=edge_list)
    @settings(max_examples=30, deadline=None)
    def test_pagerank_is_distribution(self, edges):
        g = build_graph(edges)
        ranks = pagerank(g)
        assert all(r >= 0 for r in ranks.values())
        assert sum(ranks.values()) == pytest.approx(1.0, abs=1e-6)

    @given(edges=edge_list)
    @settings(max_examples=30, deadline=None)
    def test_json_roundtrip_preserves_structure(self, edges):
        g = build_graph(edges)
        clone = graph_from_json(graph_to_json(g), meter=CostMeter())
        assert clone.n_nodes == g.n_nodes
        assert clone.n_edges == g.n_edges
        for node in g.nodes():
            assert clone.degree(node.node_id) == g.degree(node.node_id)

    @given(edges=edge_list)
    @settings(max_examples=30, deadline=None)
    def test_components_partition_nodes(self, edges):
        g = build_graph(edges)
        components = g.connected_components()
        all_nodes = set()
        for component in components:
            assert not (all_nodes & component)
            all_nodes |= component
        assert len(all_nodes) == g.n_nodes


# ----------------------------------------------------------------------
# Retrieval metric invariants
# ----------------------------------------------------------------------
ranking_strategy = st.lists(
    st.sampled_from([chr(ord("a") + i) for i in range(12)]),
    min_size=0, max_size=12, unique=True,
)
relevant_strategy = st.sets(
    st.sampled_from([chr(ord("a") + i) for i in range(12)]),
    min_size=0, max_size=6,
)


class TestMetricInvariants:
    @given(ranking=ranking_strategy, relevant=relevant_strategy,
           k=st.integers(1, 12))
    @settings(max_examples=80, deadline=None)
    def test_bounds(self, ranking, relevant, k):
        for fn in (recall_at_k, precision_at_k, ndcg_at_k):
            value = fn(ranking, relevant, k)
            assert 0.0 <= value <= 1.0
        assert 0.0 <= reciprocal_rank(ranking, relevant) <= 1.0

    @given(ranking=ranking_strategy, relevant=relevant_strategy)
    @settings(max_examples=60, deadline=None)
    def test_recall_monotone_in_k(self, ranking, relevant):
        values = [
            recall_at_k(ranking, relevant, k)
            for k in range(1, len(ranking) + 2)
        ]
        assert values == sorted(values)

    @given(ranking=ranking_strategy, relevant=relevant_strategy,
           k=st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_perfect_prefix_maximizes_ndcg(self, ranking, relevant, k):
        assume(relevant)
        ideal = list(relevant) + [r for r in ranking if r not in relevant]
        assert ndcg_at_k(ideal, relevant, k) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Entropy / calibration invariants
# ----------------------------------------------------------------------
def _generations(answers):
    return [Generation(text=a, token_logprobs=(-0.5,), grounded=True,
                       support=(0,), confidence=0.8) for a in answers]


class TestEntropyInvariants:
    @given(answers=st.lists(
        st.sampled_from([
            "sales rose 20%", "sales fell 5%", "the patient recovered",
            "it depends on the data", "revenue rose 20%",
        ]), min_size=1, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_entropy_bounds(self, answers):
        estimator = SemanticEntropyEstimator(
            judge=EntailmentJudge(meter=CostMeter())
        )
        estimate = estimator.estimate(_generations(answers))
        assert 0.0 <= estimate.entropy <= math.log(len(answers)) + 1e-9
        assert 1 <= estimate.n_clusters <= len(answers)
        assert 0.0 <= estimate.normalized <= 1.0 + 1e-9

    @given(answers=st.lists(
        st.sampled_from(["a b c", "x y z", "p q r"]),
        min_size=2, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_duplicating_samples_preserves_entropy(self, answers):
        estimator = SemanticEntropyEstimator(
            judge=EntailmentJudge(meter=CostMeter())
        )
        once = estimator.estimate(_generations(answers)).entropy
        twice = estimator.estimate(_generations(answers + answers)).entropy
        assert once == pytest.approx(twice, abs=1e-9)

    @given(scores=st.lists(st.floats(0, 1, allow_nan=False),
                           min_size=2, max_size=20),
           flips=st.lists(st.booleans(), min_size=2, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_auroc_complement_symmetry(self, scores, flips):
        n = min(len(scores), len(flips))
        scores, labels = scores[:n], flips[:n]
        assume(any(labels) and not all(labels))
        direct = auroc(scores, labels)
        inverted = auroc([-s for s in scores], labels)
        assert direct + inverted == pytest.approx(1.0)


# ----------------------------------------------------------------------
# sort_key total order
# ----------------------------------------------------------------------
mixed_values = st.one_of(
    st.none(), st.booleans(), st.integers(-50, 50),
    st.floats(-50, 50, allow_nan=False),
    st.text(max_size=6), st.dates(),
)


class TestSortKeyInvariants:
    @given(values=st.lists(mixed_values, max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_sortable_and_stable(self, values):
        ordered = sorted(values, key=sort_key)
        assert sorted(ordered, key=sort_key) == ordered

    @given(values=st.lists(mixed_values, min_size=1, max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_nulls_first(self, values):
        ordered = sorted(values, key=sort_key)
        seen_non_null = False
        for value in ordered:
            if value is None:
                assert not seen_non_null
            else:
                seen_non_null = True
