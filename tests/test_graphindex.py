"""Tests for the heterogeneous graph: structure, centrality, builder."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.runner import build_hybrid_system, generate_lake
from repro.errors import GraphIndexError
from repro.metering import EDGES_TRAVERSED, CostMeter
from repro.graphindex import (
    BuilderConfig, EDGE_CO_OCCURS, EDGE_DESCRIBES, EDGE_MENTIONS, EDGE_NEXT,
    EDGE_RELATES,
    GraphEdge, GraphIndexBuilder, GraphNode, HeterogeneousGraph,
    NODE_CHUNK, NODE_ENTITY, NODE_RECORD, chunk_key,
    entity_key, graph_from_json, graph_to_json,
    normalize_scores, pagerank,
)
from repro.slm import SLMConfig, SmallLanguageModel
from repro.storage.document import DocumentStore
from repro.storage.relational import Column, Database, TableSchema
from repro.storage.types import DataType
from repro.text.chunker import Chunker, ChunkerConfig
from repro.text.ner import TYPE_PRODUCT, Gazetteer


def make_graph():
    g = HeterogeneousGraph(meter=CostMeter())
    for i in range(3):
        g.add_node(GraphNode("chunk:c%d" % i, NODE_CHUNK, "c%d" % i))
    for name in ("alpha", "beta"):
        g.add_node(GraphNode("entity:%s" % name, NODE_ENTITY, name))
    g.add_edge(GraphEdge("chunk:c0", "entity:alpha", EDGE_MENTIONS))
    g.add_edge(GraphEdge("chunk:c1", "entity:alpha", EDGE_MENTIONS))
    g.add_edge(GraphEdge("chunk:c1", "entity:beta", EDGE_MENTIONS))
    g.add_edge(GraphEdge("entity:alpha", "entity:beta", EDGE_CO_OCCURS))
    g.add_edge(GraphEdge("chunk:c0", "chunk:c1", EDGE_NEXT))
    return g


class TestGraphStructure:
    def test_counts(self):
        g = make_graph()
        assert g.n_nodes == 5 and g.n_edges == 5

    def test_duplicate_node_ignored(self):
        g = make_graph()
        assert not g.add_node(GraphNode("chunk:c0", NODE_CHUNK, "dup"))

    def test_duplicate_edge_ignored_both_orientations(self):
        g = make_graph()
        assert not g.add_edge(
            GraphEdge("chunk:c0", "entity:alpha", EDGE_MENTIONS)
        )
        assert not g.add_edge(
            GraphEdge("entity:alpha", "chunk:c0", EDGE_MENTIONS)
        )

    def test_edge_requires_nodes(self):
        g = make_graph()
        with pytest.raises(GraphIndexError):
            g.add_edge(GraphEdge("chunk:c0", "entity:nope", EDGE_MENTIONS))

    def test_neighbors_filtered(self):
        g = make_graph()
        ents = g.neighbors("chunk:c1", node_kind=NODE_ENTITY)
        assert {n.node_id for _, n in ents} == {"entity:alpha", "entity:beta"}
        nexts = g.neighbors("chunk:c1", edge_kinds=[EDGE_NEXT])
        assert [n.node_id for _, n in nexts] == ["chunk:c0"]

    def test_degree(self):
        g = make_graph()
        assert g.degree("entity:alpha") == 3
        assert g.degree("entity:alpha", edge_kinds=[EDGE_MENTIONS]) == 2

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            GraphNode("x", "bogus", "x")
        with pytest.raises(ValueError):
            GraphEdge("a", "b", "bogus")
        with pytest.raises(ValueError):
            GraphEdge("a", "b", EDGE_NEXT, weight=0)

    def test_nodes_by_kind(self):
        g = make_graph()
        assert len(g.nodes(NODE_ENTITY)) == 2
        with pytest.raises(GraphIndexError):
            g.nodes("bogus")

    def test_meter_charged_on_traversal(self):
        meter = CostMeter()
        g = HeterogeneousGraph(meter=meter)
        g.add_node(GraphNode("chunk:a", NODE_CHUNK, "a"))
        g.add_node(GraphNode("chunk:b", NODE_CHUNK, "b"))
        g.add_edge(GraphEdge("chunk:a", "chunk:b", EDGE_NEXT))
        g.neighbors("chunk:a")
        assert meter.get(EDGES_TRAVERSED) == 1


class TestTraversal:
    def test_bfs_depths(self):
        g = make_graph()
        depths = g.bfs(["chunk:c0"], max_depth=2)
        assert depths["chunk:c0"] == 0
        assert depths["entity:alpha"] == 1
        assert depths["chunk:c1"] == 1
        assert depths["entity:beta"] == 2

    def test_bfs_max_nodes(self):
        g = make_graph()
        depths = g.bfs(["chunk:c0"], max_depth=3, max_nodes=2)
        assert len(depths) == 2

    def test_bfs_ignores_unknown_sources(self):
        g = make_graph()
        assert g.bfs(["nope"], max_depth=1) == {}

    def test_bfs_negative_depth(self):
        with pytest.raises(GraphIndexError):
            make_graph().bfs(["chunk:c0"], max_depth=-1)

    def test_components(self):
        g = make_graph()
        comps = g.connected_components()
        assert len(comps) == 2
        assert len(comps[0]) == 4  # largest first

    def test_stats(self):
        stats = make_graph().stats()
        assert stats["n_chunks"] == 3 and stats["n_entities"] == 2
        assert stats["n_components"] == 2


class TestCentrality:
    def test_pagerank_sums_to_one(self):
        ranks = pagerank(make_graph())
        assert sum(ranks.values()) == pytest.approx(1.0, abs=1e-6)

    def test_pagerank_hub_ranks_high(self):
        ranks = pagerank(make_graph())
        assert ranks["entity:alpha"] > ranks["chunk:c2"]

    def test_pagerank_bad_damping(self):
        with pytest.raises(GraphIndexError):
            pagerank(make_graph(), damping=1.5)

    def test_pagerank_empty_graph(self):
        assert pagerank(HeterogeneousGraph(meter=CostMeter())) == {}

    def test_neighbors_charges_one_unit_per_edge_examined(self):
        g = make_graph()
        assert g.meter is g._meter
        before = g.meter.get(EDGES_TRAVERSED)
        # Filtered-out edges are still examined, hence still charged.
        assert g.neighbors("chunk:c1", edge_kinds=[EDGE_NEXT],
                           node_kind=NODE_ENTITY) == ()
        assert g.meter.get(EDGES_TRAVERSED) - before == g.degree("chunk:c1")
        g.neighbors("chunk:c2")
        assert g.meter.get(EDGES_TRAVERSED) - before == g.degree("chunk:c1")

    def test_normalize(self):
        out = normalize_scores({"a": 1.0, "b": 3.0})
        assert out == {"a": 0.0, "b": 1.0}
        assert normalize_scores({"a": 2.0, "b": 2.0}) == {"a": 0.0, "b": 0.0}
        assert normalize_scores({}) == {}


def make_slm():
    gaz = Gazetteer()
    gaz.add(TYPE_PRODUCT, ["Alpha Widget", "Beta Gadget"])
    return SmallLanguageModel(SLMConfig(seed=0), gazetteer=gaz,
                              meter=CostMeter())



def _pagerank_oracle(graph, damping=0.85, max_iterations=60,
                     tolerance=1e-8, weight_by_edge=True):
    """The power iteration ``pagerank`` replaced, kept verbatim: one
    ``graph.neighbors()`` call per non-dangling node per pass."""
    nodes = [n.node_id for n in graph.nodes()]
    n = len(nodes)
    if n == 0:
        return {}
    rank = {node_id: 1.0 / n for node_id in nodes}
    out_weight = {}
    for node_id in nodes:
        neighbors = graph.neighbors(node_id)
        if weight_by_edge:
            out_weight[node_id] = sum(e.weight for e, _ in neighbors)
        else:
            out_weight[node_id] = float(len(neighbors))
    teleport = (1.0 - damping) / n
    for _ in range(max_iterations):
        new_rank = {node_id: teleport for node_id in nodes}
        dangling_mass = 0.0
        for node_id in nodes:
            total_out = out_weight[node_id]
            if total_out == 0.0:
                dangling_mass += rank[node_id]
                continue
            share = damping * rank[node_id] / total_out
            for edge, neighbor in graph.neighbors(node_id):
                w = edge.weight if weight_by_edge else 1.0
                new_rank[neighbor.node_id] += share * w
        if dangling_mass > 0.0:
            spread = damping * dangling_mass / n
            for node_id in nodes:
                new_rank[node_id] += spread
        delta = sum(abs(new_rank[v] - rank[v]) for v in nodes)
        rank = new_rank
        if delta < tolerance:
            break
    return rank


def _pagerank_scalar(graph, damping=0.85, max_iterations=60,
                     tolerance=1e-8, weight_by_edge=True):
    """The per-edge pull loop ``pagerank``'s array kernel replaced, kept
    verbatim: every pass a node pulls over its own neighbor view, one
    ``edges_traversed`` lump per pass."""
    nodes = [n.node_id for n in graph.nodes()]
    n = len(nodes)
    if n == 0:
        return {}
    views = [(node_id, graph.neighbors(node_id)) for node_id in nodes]
    out_weight = {}
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
        share = {}
        dangling_mass = 0.0
        for node_id, total_out in out_weight.items():
            if total_out == 0.0:
                share[node_id] = 0.0
                dangling_mass += rank[node_id]
            else:
                share[node_id] = damping * rank[node_id] / total_out
        spread = damping * dangling_mass / n
        new_rank = {}
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


def _charged(graph, fn, **kwargs):
    """``fn(graph, **kwargs)`` and every meter charge it made, in order."""
    meter, charges = graph.meter, []
    charge = meter.charge

    def recording(name, amount=1):
        charges.append((name, amount))
        charge(name, amount)

    meter.charge = recording
    try:
        return fn(graph, **kwargs), charges
    finally:
        del meter.charge


def _assert_matches_oracle(graph, **kwargs):
    ranks, charges = _charged(graph, pagerank, **kwargs)
    scalar, scalar_charges = _charged(graph, _pagerank_scalar, **kwargs)
    with graph.meter.measure() as oracle_work:
        expected = _pagerank_oracle(graph, **kwargs)
    # Bit-for-bit: same floats, same key order, same work charged —
    # charge for charge against the scalar loop (so the same number of
    # passes), in total against the push oracle.
    assert list(ranks.items()) == list(scalar.items())
    assert list(ranks.items()) == list(expected.items())
    assert charges == scalar_charges
    assert {kind for kind, _ in charges} == {EDGES_TRAVERSED}
    assert sum(units for _, units in charges) == sum(oracle_work.values())
    assert all(type(value) is float for value in ranks.values())


_EDGE_DRAW = st.tuples(
    st.integers(0, 7), st.integers(0, 7),
    st.sampled_from([EDGE_CO_OCCURS, EDGE_RELATES]),
    st.sampled_from([None, "bought", "returned"]),
    st.sampled_from([0.25, 1.0, 1.5, 3.0]),
)


class TestPageRankMatchesOracle:
    @pytest.mark.parametrize("domain", ["ecommerce", "healthcare"])
    @pytest.mark.parametrize("seed", [7, 11])
    def test_default_lake_graphs(self, domain, seed):
        _, pipeline = build_hybrid_system(generate_lake(domain, seed), seed)
        for weight_by_edge in (True, False):
            _assert_matches_oracle(pipeline.graph,
                                   weight_by_edge=weight_by_edge)

    @settings(max_examples=150, deadline=None)
    @given(
        n_nodes=st.integers(1, 8),
        edges=st.lists(_EDGE_DRAW, max_size=24),
        zeroed=st.sets(st.integers(0, 7)),
        weight_by_edge=st.booleans(),
        max_iterations=st.sampled_from([0, 1, 60, 500]),
        tolerance=st.sampled_from([1e-8, 1e-3, 0.2]),
    )
    def test_multigraphs(self, n_nodes, edges, zeroed, weight_by_edge,
                         max_iterations, tolerance):
        # Parallel edges under different labels, self-loops, isolated
        # nodes, nodes whose edges all weigh 0 (dangling under
        # weight_by_edge only), and tolerances loose enough to stop
        # after a pass or two.
        g = HeterogeneousGraph(meter=CostMeter())
        ids = ["entity:n%d" % i for i in range(n_nodes)]
        for node_id in ids:
            g.add_node(GraphNode(node_id, NODE_ENTITY, node_id))
        for a, b, kind, label, weight in edges:
            g.add_edge(GraphEdge(ids[a % n_nodes], ids[b % n_nodes],
                                 kind, label, weight))
        for i in zeroed:
            # GraphEdge rejects weight 0, so write it in directly — into
            # both stored orientations: an undirected edge has one
            # weight, which ``pagerank`` (a node pulls over its own
            # view) relies on and the oracle (a node pushes) does not.
            for adjacency in g._adjacency.values():
                for edge in adjacency:
                    if ids[i % n_nodes] in (edge.source, edge.target):
                        object.__setattr__(edge, "weight", 0.0)
        _assert_matches_oracle(g, weight_by_edge=weight_by_edge,
                               max_iterations=max_iterations,
                               tolerance=tolerance)

    def test_a_loose_tolerance_stops_early_on_the_same_pass(self):
        _, pipeline = build_hybrid_system(generate_lake("ecommerce", 7), 7)
        graph = pipeline.graph
        passes = []
        for tolerance in (0.5, 1e-3, 1e-8):
            _, charges = _charged(graph, pagerank, tolerance=tolerance,
                                  max_iterations=500)
            passes.append(len(charges) - graph.n_nodes)
            _assert_matches_oracle(graph, tolerance=tolerance,
                                   max_iterations=500)
        assert 1 <= passes[0] < passes[1] < passes[2] < 500

def _neighbors_oracle(graph, node_id, edge_kinds=None, node_kind=None):
    """The ``neighbors`` the graph-owned views replaced, kept verbatim:
    filter the insertion-ordered adjacency, then stable-sort by target."""
    adjacency = graph._adjacency.get(node_id)
    if adjacency is None:
        raise GraphIndexError("no node %r" % node_id)
    graph._meter.charge(EDGES_TRAVERSED, len(adjacency))
    wanted = set(edge_kinds) if edge_kinds is not None else None
    out = []
    for edge in adjacency:
        if wanted is not None and edge.kind not in wanted:
            continue
        neighbor = graph._nodes[edge.target]
        if node_kind is not None and neighbor.kind != node_kind:
            continue
        out.append((edge, neighbor))
    out.sort(key=lambda pair: pair[1].node_id)
    return out


def _bfs_oracle(graph, sources, max_depth, edge_kinds, max_nodes):
    """The BFS ``_bfs`` replaced, over :func:`_neighbors_oracle`."""
    depths = {}
    queue = []
    for source in sources:
        if graph.has_node(source) and source not in depths:
            depths[source] = 0
            queue.append(source)
    while queue:
        current = queue.pop(0)
        depth = depths[current]
        if depth >= max_depth:
            continue
        for _, neighbor in _neighbors_oracle(graph, current, edge_kinds):
            if neighbor.node_id in depths:
                continue
            depths[neighbor.node_id] = depth + 1
            queue.append(neighbor.node_id)
            if max_nodes is not None and len(depths) >= max_nodes:
                return depths
    return depths


# How a caller may spell one edge-kind filter; each entry builds a fresh
# value per call because a generator is spent after one read.
_KIND_SPELLINGS = (
    lambda kinds: None if kinds is None else list(kinds),
    lambda kinds: None if kinds is None else tuple(kinds),
    lambda kinds: None if kinds is None else (k for k in kinds),
)
_KIND_FILTERS = (
    None, (), (EDGE_MENTIONS,), (EDGE_CO_OCCURS, EDGE_RELATES),
    (EDGE_RELATES, EDGE_RELATES, "no-such-kind"),
    (EDGE_MENTIONS, EDGE_RELATES, EDGE_CO_OCCURS, EDGE_DESCRIBES),
)
_NODE_KIND_FILTERS = (None, NODE_CHUNK, NODE_ENTITY, NODE_RECORD,
                      "no-such-kind")


def _assert_reads_match_oracle(graph, kind_filters=_KIND_FILTERS):
    """Every node x filter: same pairs in the same order, same charge;
    BFS from every node: same depths in the same key order."""
    meter = graph.meter
    node_ids = [n.node_id for n in graph.nodes()]
    for node_id in node_ids:
        for kinds in kind_filters:
            for spell in _KIND_SPELLINGS:
                for node_kind in _NODE_KIND_FILTERS:
                    with meter.measure() as work:
                        got = graph.neighbors(node_id, spell(kinds),
                                              node_kind)
                    with meter.measure() as oracle_work:
                        want = _neighbors_oracle(graph, node_id,
                                                 spell(kinds), node_kind)
                    assert isinstance(got, tuple)
                    assert list(got) == want
                    assert work == oracle_work
    for kinds in (None, (EDGE_MENTIONS, EDGE_RELATES, EDGE_CO_OCCURS,
                         EDGE_DESCRIBES)):
        for max_nodes in (None, 1, 5, 400):
            for sources in [[n] for n in node_ids] + [node_ids[::-3]]:
                with meter.measure() as work:
                    got = graph.bfs(sources, max_depth=3, edge_kinds=kinds,
                                    max_nodes=max_nodes)
                with meter.measure() as oracle_work:
                    want = _bfs_oracle(graph, sources, 3, kinds, max_nodes)
                assert list(got.items()) == list(want.items())
                assert work == oracle_work


_MULTI_EDGE_DRAW = st.tuples(
    st.integers(0, 5), st.integers(0, 5),
    st.sampled_from([EDGE_CO_OCCURS, EDGE_RELATES, EDGE_MENTIONS]),
    st.sampled_from([None, "bought"]),
)
# ("edge", draw) adds an edge, ("unedge", draw) removes it (either
# orientation), ("merge", a, b) merges node b into a, ("remove", a)
# removes node a and adds it back bare.
_MUTATION = st.one_of(
    st.tuples(st.just("edge"), _MULTI_EDGE_DRAW),
    st.tuples(st.just("unedge"), _MULTI_EDGE_DRAW),
    st.tuples(st.just("merge"), st.integers(0, 5), st.integers(0, 5)),
    st.tuples(st.just("remove"), st.integers(0, 5)),
)


class TestAdjacencyMatchesOracle:
    @pytest.mark.parametrize("domain", ["ecommerce", "healthcare"])
    @pytest.mark.parametrize("seed", [7, 11])
    def test_default_lake_graphs(self, domain, seed):
        _, pipeline = build_hybrid_system(generate_lake(domain, seed), seed)
        graph = pipeline.graph
        _assert_reads_match_oracle(graph, kind_filters=(
            None, (EDGE_MENTIONS,),
            (EDGE_MENTIONS, EDGE_RELATES, EDGE_CO_OCCURS, EDGE_DESCRIBES),
        ))
        # Target ties (parallel edges) make insertion order load-bearing:
        # a saved and reloaded graph must read the same.
        clone = graph_from_json(graph_to_json(graph), meter=CostMeter())
        ties = 0
        for node in graph.nodes():
            pairs = graph.neighbors(node.node_id)
            targets = [e.target for e, _ in pairs]
            ties += len(targets) != len(set(targets))
            assert [e for e, _ in clone.neighbors(node.node_id)] == \
                [e for e, _ in pairs]
        assert ties > 0

    @settings(max_examples=60, deadline=None)
    @given(
        n_nodes=st.integers(1, 6),
        edges=st.lists(_MULTI_EDGE_DRAW, max_size=16),
        mutations=st.lists(_MUTATION, max_size=6),
    )
    def test_multigraphs_with_interleaved_writes(self, n_nodes, edges,
                                                 mutations):
        # Parallel edges under different kinds/labels, self-loops,
        # isolated nodes; every read between two writes fills views a
        # later write must drop for exactly the nodes it touches.
        g = HeterogeneousGraph(meter=CostMeter())
        ids = ["entity:n%d" % i for i in range(n_nodes)]
        for node_id in ids:
            g.add_node(GraphNode(node_id, NODE_ENTITY, node_id))

        def add(draw):
            a, b, kind, label = draw
            a, b = ids[a % n_nodes], ids[b % n_nodes]
            if g.has_node(a) and g.has_node(b):
                g.add_edge(GraphEdge(a, b, kind, label))

        for draw in edges:
            add(draw)
        filters = (None, (EDGE_RELATES,), (EDGE_CO_OCCURS, EDGE_MENTIONS))
        _assert_reads_match_oracle(g, kind_filters=filters)
        for mutation in mutations:
            if mutation[0] == "edge":
                add(mutation[1])
            elif mutation[0] == "unedge":
                a, b, kind, label = mutation[1]
                a, b = ids[a % n_nodes], ids[b % n_nodes]
                present = any(e.target == b and e.kind == kind
                              and e.label == label
                              for e, _ in g.neighbors(a)) \
                    if g.has_node(a) else False
                assert g.remove_edge(GraphEdge(b, a, kind, label)) \
                    == present
            elif mutation[0] == "remove":
                node_id = ids[mutation[1] % n_nodes]
                if g.has_node(node_id):
                    assert g.remove_node(node_id).node_id == node_id
                    assert not g.has_node(node_id)
                    g.add_node(GraphNode(node_id, NODE_ENTITY, node_id))
                    assert g.neighbors(node_id) == ()
            else:
                keep, drop = ids[mutation[1] % n_nodes], \
                    ids[mutation[2] % n_nodes]
                if keep != drop and g.has_node(keep) and g.has_node(drop):
                    g.merge_nodes(keep, drop)
            _assert_reads_match_oracle(g, kind_filters=filters)
            assert g.n_edges == len(g.edges()) == len(g._edge_keys)
            assert all(g.has_node(e.target) for e in g.edges())

    def test_returned_view_is_immutable(self):
        g = make_graph()
        view = g.neighbors("chunk:c1")
        with pytest.raises(TypeError):
            view[0] = view[1]
        assert not hasattr(view, "append")
        assert g.neighbors("chunk:c1") is view

    def test_write_drops_only_the_touched_nodes_views(self):
        g = make_graph()
        before = {n.node_id: g.neighbors(n.node_id) for n in g.nodes()}
        g.add_edge(GraphEdge("chunk:c2", "entity:beta", EDGE_MENTIONS))
        for node_id, view in before.items():
            if node_id in ("chunk:c2", "entity:beta"):
                assert g.neighbors(node_id) == tuple(
                    _neighbors_oracle(g, node_id))
                assert len(g.neighbors(node_id)) == len(view) + 1
            else:
                assert g.neighbors(node_id) is view

    def test_unknown_node_raises(self):
        g = make_graph()
        with pytest.raises(GraphIndexError):
            g.neighbors("chunk:nope")
        with pytest.raises(GraphIndexError):
            g.neighbors("chunk:nope", edge_kinds=[EDGE_NEXT])


class TestBuilder:
    def build_from_text(self, config=None):
        slm = make_slm()
        chunker = Chunker(ChunkerConfig(max_tokens=40, overlap_sentences=0))
        chunks = chunker.chunk_corpus({
            "r1": "The Alpha Widget sales increased 20% in Q2. "
                  "Customers liked the Alpha Widget.",
            "r2": "The Beta Gadget sold poorly. Q2 returns rose.",
        })
        builder = GraphIndexBuilder(slm, config=config, meter=CostMeter())
        builder.add_chunks(chunks)
        return builder.build()

    def test_chunk_and_entity_nodes(self):
        g = self.build_from_text()
        assert len(g.nodes(NODE_CHUNK)) >= 2
        entity_ids = {n.node_id for n in g.nodes(NODE_ENTITY)}
        assert entity_key("alpha widget") in entity_ids
        assert entity_key("beta gadget") in entity_ids

    def test_mentions_edges(self):
        g = self.build_from_text()
        ek = entity_key("alpha widget")
        mentions = g.neighbors(ek, edge_kinds=[EDGE_MENTIONS])
        assert len(mentions) >= 1

    def test_relation_cue_extracted(self):
        g = self.build_from_text()
        # "Alpha Widget sales increased 20%" links entities via a verb.
        relates = [e for e in g.edges() if e.kind == EDGE_RELATES]
        assert relates, "expected at least one relational cue edge"
        assert all(e.label for e in relates)

    def test_chunk_only_ablation(self):
        g = self.build_from_text(
            BuilderConfig(entity_nodes=False)
        )
        assert g.nodes(NODE_ENTITY) == []
        assert len(g.nodes(NODE_CHUNK)) >= 2

    def test_no_cooccurrence_ablation(self):
        g = self.build_from_text(BuilderConfig(cooccurrence_edges=False))
        assert not [e for e in g.edges() if e.kind == EDGE_CO_OCCURS]

    def test_empty_build_rejected(self):
        builder = GraphIndexBuilder(make_slm(), meter=CostMeter())
        with pytest.raises(GraphIndexError):
            builder.build()

    def test_add_table(self):
        db = Database(meter=CostMeter())
        db.create_table(TableSchema(
            "purchases",
            [Column("customer", DataType.TEXT),
             Column("product", DataType.TEXT)],
        ))
        db.load_rows("purchases", [("cust-1", "Alpha Widget")])
        builder = GraphIndexBuilder(make_slm(), meter=CostMeter())
        builder.add_table(db.table("purchases"),
                          entity_columns=["customer", "product"])
        g = builder.build()
        assert len(g.nodes(NODE_RECORD)) == 1
        # Table entity unifies with text entity via normalization.
        assert g.has_node(entity_key("alpha widget"))

    def test_add_documents(self):
        store = DocumentStore(meter=CostMeter())
        store.put("log1", {"customer": "cust-1", "event": "return"})
        builder = GraphIndexBuilder(make_slm(), meter=CostMeter())
        builder.add_documents(store, entity_paths=["customer"])
        g = builder.build()
        assert g.has_node(entity_key("cust-1"))
        assert len(g.nodes(NODE_RECORD)) == 1


class TestPersistence:
    def test_roundtrip(self):
        g = make_graph()
        clone = graph_from_json(graph_to_json(g), meter=CostMeter())
        assert clone.n_nodes == g.n_nodes
        assert clone.n_edges == g.n_edges
        assert clone.stats() == g.stats()

    def test_bad_json(self):
        with pytest.raises(GraphIndexError):
            graph_from_json("not json at all {")
        with pytest.raises(GraphIndexError):
            graph_from_json("[]")

    def test_version_check(self):
        with pytest.raises(GraphIndexError):
            graph_from_json('{"version": 99, "nodes": [], "edges": []}')
