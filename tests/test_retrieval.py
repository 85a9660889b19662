"""Tests for BM25, dense, IVF and topology retrievers plus metrics."""

import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import repro
import repro.retrieval.topology as topology_module
from repro.bench.runner import build_hybrid_system, generate_lake
from repro.errors import BenchmarkError, RetrievalError
from repro.metering import (
    CostMeter, EMBEDDING_CALLS, NODES_SCORED, VECTORS_COMPARED,
)
from repro.graphindex import GraphIndexBuilder
from repro.retrieval import (
    BM25Retriever, DenseRetriever, IVFDenseRetriever, TopologyConfig,
    TopologyRetriever, aggregate_rankings, evaluate_ranking, ndcg_at_k,
    precision_at_k, recall_at_k, reciprocal_rank,
)
from repro.slm import SLMConfig, SmallLanguageModel
from repro.slm.embeddings import EmbeddingModel
from repro.text.chunker import Chunk, Chunker, ChunkerConfig
from repro.text.ner import TYPE_PRODUCT, Gazetteer
from repro.text.stopwords import content_stems

CORPUS = {
    "doc_alpha": "The Alpha Widget sales increased 20% in Q2. "
                 "Retail channels drove the Alpha Widget growth.",
    "doc_beta": "The Beta Gadget saw declining sales. "
                "Beta Gadget returns increased sharply.",
    "doc_weather": "The weather was mild this spring. "
                   "Rainfall stayed close to seasonal averages.",
    "doc_gamma": "Gamma Gizmo is a niche product. "
                 "Gamma Gizmo shipments were flat in Q2.",
}


def make_chunks():
    chunker = Chunker(ChunkerConfig(max_tokens=30, overlap_sentences=0))
    return chunker.chunk_corpus(CORPUS)


def make_slm(meter=None):
    gaz = Gazetteer()
    gaz.add(TYPE_PRODUCT, ["Alpha Widget", "Beta Gadget", "Gamma Gizmo"])
    return SmallLanguageModel(SLMConfig(seed=0), gazetteer=gaz,
                              meter=meter or CostMeter())


#: Ranks the E1 retrieval corpora (three sizes, 16 queries each) with
#: BM25 and prints every top-5 id and score.
_E1_RANKINGS = """
from repro.bench import LakeSpec, generate_ecommerce_lake
from repro.retrieval import BM25Retriever
from repro.text.chunker import Chunker, ChunkerConfig
for n_products in (8, 24, 48):
    lake = generate_ecommerce_lake(
        LakeSpec(n_products=n_products, seed=13, n_filler_docs=6))
    chunker = Chunker(ChunkerConfig(max_tokens=48, overlap_sentences=0))
    retriever = BM25Retriever()
    retriever.index(chunker.chunk_corpus(lake.review_texts))
    for query in lake.retrieval_queries(n=16):
        hits = retriever.retrieve(query.query, k=5)
        print([(hit.chunk_id, repr(hit.score)) for hit in hits])
"""


def _e1_rankings(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1]))
    completed = subprocess.run(
        [sys.executable, "-c", _E1_RANKINGS], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return completed.stdout


def alpha_chunk_ids(chunks):
    return {c.chunk_id for c in chunks if "Alpha" in c.text}


class TestBM25:
    def test_relevant_doc_first(self):
        chunks = make_chunks()
        retriever = BM25Retriever(meter=CostMeter())
        retriever.index(chunks)
        hits = retriever.retrieve("Alpha Widget sales", k=3)
        assert hits[0].chunk.doc_id == "doc_alpha"

    def test_stemming_matches_variants(self):
        chunks = make_chunks()
        retriever = BM25Retriever(meter=CostMeter())
        retriever.index(chunks)
        hits = retriever.retrieve("increasing sale", k=2)
        assert hits and hits[0].score > 0

    def test_retrieve_before_index(self):
        with pytest.raises(RetrievalError):
            BM25Retriever(meter=CostMeter()).retrieve("x")

    def test_bad_k(self):
        retriever = BM25Retriever(meter=CostMeter())
        retriever.index(make_chunks())
        with pytest.raises(RetrievalError):
            retriever.retrieve("x", k=0)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            BM25Retriever(k1=0)
        with pytest.raises(ValueError):
            BM25Retriever(b=2.0)

    def test_no_match_empty(self):
        retriever = BM25Retriever(meter=CostMeter())
        retriever.index(make_chunks())
        assert retriever.retrieve("zzzz qqqq", k=3) == []

    def test_deterministic_ties(self):
        retriever = BM25Retriever(meter=CostMeter())
        retriever.index(make_chunks())
        a = [h.chunk_id for h in retriever.retrieve("sales increased", k=4)]
        b = [h.chunk_id for h in retriever.retrieve("sales increased", k=4)]
        assert a == b

    def test_rankings_do_not_depend_on_the_hash_seed(self):
        # Per-term scores are summed in query order, not set order, so
        # the float sums (and the ties they break) repeat across
        # interpreter runs.
        rankings = _e1_rankings(0)
        assert rankings.strip()
        assert _e1_rankings(2) == rankings

    def test_reindex_drops_term_sets_of_dropped_chunks(self):
        chunks = make_chunks()
        retriever = BM25Retriever(meter=CostMeter())
        retriever.index(chunks)
        retriever.index(chunks[1:])
        with pytest.raises(KeyError):
            retriever.terms(chunks[0].chunk_id)
        assert retriever.terms(chunks[1].chunk_id)

    def test_terms_follow_build_and_incremental_ingest(self):
        _, pipeline = build_hybrid_system(generate_lake("ecommerce", 7), 7)

        def check_all_indexed():
            bm25 = pipeline._retriever._fallback
            chunks = pipeline.text_store.chunks()
            for chunk in chunks:
                assert bm25.terms(chunk.chunk_id) == frozenset(
                    content_stems(chunk.text)
                )
            with pytest.raises(KeyError):
                bm25.terms("no-such-chunk")
            return {c.chunk_id for c in chunks}

        before = check_all_indexed()
        pipeline.ingest_incremental([
            ("late_review", "Zanzibar shipments of the widget doubled."),
        ])
        after = check_all_indexed()
        assert after > before


class TestDense:
    def test_relevant_doc_first(self):
        meter = CostMeter()
        retriever = DenseRetriever(EmbeddingModel(dim=64, meter=meter),
                                   meter=meter)
        chunks = make_chunks()
        retriever.index(chunks)
        hits = retriever.retrieve("Alpha Widget sales growth", k=3)
        assert hits[0].chunk.doc_id == "doc_alpha"

    def test_index_embeds_every_chunk(self):
        meter = CostMeter()
        retriever = DenseRetriever(EmbeddingModel(dim=32, meter=meter),
                                   meter=meter)
        chunks = make_chunks()
        retriever.index(chunks)
        assert meter.get(EMBEDDING_CALLS) == len(chunks)

    def test_query_compares_all_vectors(self):
        meter = CostMeter()
        retriever = DenseRetriever(EmbeddingModel(dim=32, meter=meter),
                                   meter=meter)
        chunks = make_chunks()
        retriever.index(chunks)
        meter.reset()
        retriever.retrieve("anything", k=2)
        assert meter.get(VECTORS_COMPARED) == len(chunks)

    def test_index_bytes_positive(self):
        retriever = DenseRetriever(EmbeddingModel(dim=32, meter=CostMeter()),
                                   meter=CostMeter())
        retriever.index(make_chunks())
        assert retriever.index_bytes > 0

    def test_empty_corpus(self):
        retriever = DenseRetriever(EmbeddingModel(dim=32, meter=CostMeter()),
                                   meter=CostMeter())
        retriever.index([])
        assert retriever.retrieve("x", k=2) == []


class TestIVF:
    def test_matches_brute_force_mostly(self):
        meter = CostMeter()
        embedder = EmbeddingModel(dim=64, meter=meter)
        chunks = make_chunks()
        brute = DenseRetriever(embedder, meter=meter)
        brute.index(chunks)
        ivf = IVFDenseRetriever(embedder, n_clusters=2, n_probe=2,
                                meter=meter)
        ivf.index(chunks)
        q = "Alpha Widget sales"
        brute_top = brute.retrieve(q, k=1)[0].chunk_id
        ivf_top = ivf.retrieve(q, k=1)[0].chunk_id
        assert brute_top == ivf_top  # full probe == brute force

    def test_fewer_comparisons_with_low_probe(self):
        chunks = make_chunks()
        meter_full = CostMeter()
        full = DenseRetriever(
            EmbeddingModel(dim=32, meter=meter_full), meter=meter_full
        )
        full.index(chunks)
        meter_full.reset()
        full.retrieve("Alpha Widget", k=2)

        meter_ivf = CostMeter()
        ivf = IVFDenseRetriever(
            EmbeddingModel(dim=32, meter=meter_ivf), n_clusters=4,
            n_probe=1, meter=meter_ivf,
        )
        ivf.index(chunks)
        meter_ivf.reset()
        ivf.retrieve("Alpha Widget", k=2)
        # IVF compares centroids + one cluster, brute compares all chunks.
        assert meter_ivf.get(NODES_SCORED) <= meter_full.get(NODES_SCORED)

    def test_bad_params(self):
        embedder = EmbeddingModel(dim=32, meter=CostMeter())
        with pytest.raises(RetrievalError):
            IVFDenseRetriever(embedder, n_clusters=0)
        with pytest.raises(RetrievalError):
            IVFDenseRetriever(embedder, n_probe=0)


class TestTopology:
    def make_retriever(self, config=None, meter=None):
        meter = meter or CostMeter()
        slm = make_slm(meter)
        chunks = make_chunks()
        builder = GraphIndexBuilder(slm, meter=meter)
        builder.add_chunks(chunks)
        graph = builder.build()
        retriever = TopologyRetriever(graph, slm, config=config, meter=meter)
        retriever.index(chunks)
        return retriever, chunks, meter

    def test_entity_query_hits_right_doc(self):
        retriever, chunks, _ = self.make_retriever()
        hits = retriever.retrieve("How did Alpha Widget sales change?", k=2)
        assert hits[0].chunk.doc_id == "doc_alpha"

    def test_no_embedding_calls_at_query_time(self):
        retriever, _, meter = self.make_retriever()
        meter.reset()
        retriever.retrieve("How did Alpha Widget sales change?", k=2)
        assert meter.get(EMBEDDING_CALLS) == 0

    def test_multi_entity_query_covers_both(self):
        retriever, chunks, _ = self.make_retriever()
        hits = retriever.retrieve(
            "Compare Alpha Widget and Beta Gadget sales", k=4
        )
        docs = {h.chunk.doc_id for h in hits}
        assert {"doc_alpha", "doc_beta"} <= docs

    def test_anchor_coverage_in_components(self):
        retriever, _, _ = self.make_retriever()
        hits = retriever.retrieve("Alpha Widget sales", k=1)
        assert "anchor" in hits[0].components

    def test_fallback_for_entity_free_query(self):
        retriever, _, _ = self.make_retriever()
        hits = retriever.retrieve("rainfall seasonal averages", k=2)
        assert hits and hits[0].chunk.doc_id == "doc_weather"

    def test_retrieve_before_index(self):
        meter = CostMeter()
        slm = make_slm(meter)
        builder = GraphIndexBuilder(slm, meter=meter)
        builder.add_chunks(make_chunks())
        retriever = TopologyRetriever(builder.build(), slm, meter=meter)
        with pytest.raises(RetrievalError):
            retriever.retrieve("x")

    def test_chunks_must_be_in_graph(self):
        meter = CostMeter()
        slm = make_slm(meter)
        builder = GraphIndexBuilder(slm, meter=meter)
        chunks = make_chunks()
        builder.add_chunks(chunks[:2])
        retriever = TopologyRetriever(builder.build(), slm, meter=meter)
        with pytest.raises(RetrievalError):
            retriever.index(chunks)

    def test_centrality_ablation(self):
        retriever, _, _ = self.make_retriever(
            TopologyConfig(use_centrality=False)
        )
        hits = retriever.retrieve("Alpha Widget sales", k=1)
        assert hits[0].components["centrality"] == 0.0

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            TopologyConfig(max_depth=0)
        with pytest.raises(ValueError):
            TopologyConfig(max_nodes=0)

    def test_retrieve_analyses_only_the_query_and_only_once(
            self, monkeypatch):
        retriever, chunks, _ = self.make_retriever()
        seen = []

        def recorder(text):
            seen.append(text)
            return content_stems(text)

        monkeypatch.setattr(topology_module, "content_stems", recorder)
        exact = "How did Alpha Widget sales change?"
        fuzzy = "did the widget grow"  # no tagged entity: fuzzy anchors
        for query in (exact, fuzzy):
            del seen[:]
            assert retriever.retrieve(query, k=3)
            assert seen == [query]

    def test_explain_mentions_anchor(self):
        retriever, _, _ = self.make_retriever()
        text = retriever.explain("Alpha Widget sales", k=2)
        assert "entity:alpha widget" in text


# ----------------------------------------------------------------------
# Delta maintenance: update() after update() == one fresh index()
# ----------------------------------------------------------------------
_SENTENCES = (
    "The Alpha Widget sales increased 20% in Q2.",
    "Beta Gadget returns increased sharply this spring.",
    "Gamma Gizmo shipments were flat while Alpha Widget sales grew.",
    "Rainfall stayed close to seasonal averages.",
    "The Beta Gadget and the Gamma Gizmo shipped to retail channels.",
    "The of and to.",  # stop words only: an empty term set
)
_QUERIES = (
    "How did Alpha Widget sales change?",   # tagged anchor
    "did the widget grow",                  # fuzzy anchors
    "rainfall seasonal averages",           # entity-free: BM25 fallback
    "Compare Beta Gadget and Gamma Gizmo shipments",
    "zzzz qqqq",
)
# One step: chunks to add (slot, sentence — an occupied slot is a
# replacement) and slots to remove (absent ones are ignored).
_STEPS = st.lists(
    st.tuples(
        st.lists(st.tuples(st.integers(0, 5),
                           st.integers(0, len(_SENTENCES) - 1)),
                 max_size=4),
        st.lists(st.integers(0, 5), max_size=3),
    ),
    min_size=1, max_size=6,
)


def _slot_chunk(slot, sentence):
    text = _SENTENCES[sentence]
    return Chunk("d%d#0" % slot, "d%d" % slot, text, 0, len(text.split()))


def _apply(survivors, added, removed):
    """The surviving chunks after one step, as ``update`` defines it."""
    for chunk_id in removed:
        survivors.pop(chunk_id, None)
    for chunk in added:
        survivors[chunk.chunk_id] = chunk


def _bm25_state(retriever):
    return (retriever._chunks, retriever._doc_len, retriever._terms,
            retriever._avg_len, retriever._postings)


def _rankings(retriever):
    return [
        [(hit.chunk_id, hit.score, hit.components)
         for hit in retriever.retrieve(query, k=4)]
        for query in _QUERIES
    ]


class TestDeltaMatchesFreshIndex:
    @settings(max_examples=120, deadline=None)
    @given(steps=_STEPS)
    def test_bm25(self, steps):
        live = BM25Retriever(meter=CostMeter())
        survivors = {}
        for adds, drops in steps:
            added = [_slot_chunk(*add) for add in adds]
            removed = ["d%d#0" % slot for slot in drops]
            live.update(added, removed)
            _apply(survivors, added, removed)
            fresh = BM25Retriever(meter=CostMeter())
            fresh.index(list(survivors.values()))
            # Dict equality ignores order: postings compare as sets.
            assert _bm25_state(live) == _bm25_state(fresh)
            assert _rankings(live) == _rankings(fresh)
        live.index(())
        assert _bm25_state(live) == ({}, {}, {}, 0.0, {})
        assert live._total_len == 0

    @settings(max_examples=60, deadline=None)
    @given(steps=_STEPS, merge_after=st.integers(0, 5),
           use_centrality=st.booleans())
    def test_topology(self, steps, merge_after, use_centrality):
        meter = CostMeter()
        slm = make_slm(meter)
        config = TopologyConfig(use_centrality=use_centrality)
        builder = GraphIndexBuilder(slm, meter=meter)
        builder.add_chunks([_slot_chunk(0, 0)])
        graph = builder.build()
        live = TopologyRetriever(graph, slm, config=config, meter=meter)
        live.index([_slot_chunk(0, 0)])
        survivors = {"d0#0": _slot_chunk(0, 0)}
        for index, (adds, drops) in enumerate(steps):
            added = [_slot_chunk(*add) for add in adds]
            removed = ["d%d#0" % slot for slot in drops]
            # The graph only grows (a re-added slot keeps its node);
            # the retriever is compared over whatever graph there is.
            builder.add_chunks(added)
            if index == merge_after and all(map(graph.has_node, (
                    "entity:alpha widget", "entity:beta gadget"))):
                graph.merge_nodes("entity:alpha widget",
                                  "entity:beta gadget")
            live.update(added, removed)
            _apply(survivors, added, removed)
            fresh = TopologyRetriever(graph, slm, config=config,
                                      meter=CostMeter())
            fresh.index(list(survivors.values()))
            assert live._chunks == fresh._chunks
            assert live._entity_tokens == fresh._entity_tokens
            assert set(live._entity_tokens) == {
                node.node_id for node in graph.nodes("entity")}
            assert live._centrality == fresh._centrality
            assert _bm25_state(live._fallback) == _bm25_state(
                fresh._fallback)
            assert _rankings(live) == _rankings(fresh)

    def test_update_rejects_chunks_the_graph_lacks(self):
        retriever, chunks, _ = TestTopology().make_retriever()
        with pytest.raises(RetrievalError):
            retriever.update([_slot_chunk(9, 0)],
                             removed=[chunks[0].chunk_id])
        # Checked before anything is touched: nothing was removed.
        assert set(retriever._chunks) == {c.chunk_id for c in chunks}
        assert set(retriever._fallback._chunks) == set(retriever._chunks)

    def test_update_analyses_only_the_added_chunks(self, monkeypatch):
        import repro.retrieval.lexical as lexical_module

        retriever = BM25Retriever(meter=CostMeter())
        chunks = make_chunks()
        retriever.index(chunks[:-1])
        seen = []

        def recorder(text):
            seen.append(text)
            return content_stems(text)

        monkeypatch.setattr(lexical_module, "content_stems", recorder)
        retriever.update(chunks[-1:], removed=[chunks[0].chunk_id])
        assert seen == [chunks[-1].text]

    @pytest.mark.parametrize("domain", ["ecommerce", "healthcare"])
    @pytest.mark.parametrize("seed", [7, 11])
    def test_appended_pipeline_answers_like_a_re_indexed_one(
            self, domain, seed):
        lake = generate_lake(domain, seed)
        _, pipeline = build_hybrid_system(lake, seed)
        built = pipeline._retriever
        appends = [
            ("zz-late-1", "The loading dock was repainted last weekend. "
                          "Visitors sign the log book at reception."),
            ("aa-late-2", "Customer satisfaction with the Gamma Widget "
                          "increased 9% in Q1 2025. Stores restocked."),
            ("mm-late-3", "Parking permits are renewed every spring."),
        ]
        for doc in appends:
            pipeline.ingest_incremental([doc])
        assert pipeline._retriever is built  # maintained, not replaced
        questions = [p.question for p in lake.qa_pairs(per_kind=10 ** 6)]
        questions.append("Was the loading dock repainted?")
        maintained = [pipeline.answer(q).fingerprint() for q in questions]
        pipeline.build()  # from scratch, over the same stores
        fresh = pipeline._retriever
        assert fresh is not built
        assert built._chunks == fresh._chunks
        assert built._entity_tokens == fresh._entity_tokens
        assert built._centrality == fresh._centrality
        assert _bm25_state(built._fallback) == _bm25_state(fresh._fallback)
        assert maintained == [
            pipeline.answer(q).fingerprint() for q in questions]


class TestMetrics:
    def test_recall(self):
        assert recall_at_k(["a", "b", "c"], {"b", "z"}, 2) == 0.5
        assert recall_at_k(["a"], set(), 1) == 0.0

    def test_precision(self):
        assert precision_at_k(["a", "b"], {"a"}, 2) == 0.5

    def test_mrr(self):
        assert reciprocal_rank(["x", "a"], {"a"}) == 0.5
        assert reciprocal_rank(["x"], {"a"}) == 0.0

    def test_ndcg_perfect(self):
        assert ndcg_at_k(["a", "b"], {"a", "b"}, 2) == pytest.approx(1.0)

    def test_ndcg_order_matters(self):
        good = ndcg_at_k(["a", "x"], {"a"}, 2)
        bad = ndcg_at_k(["x", "a"], {"a"}, 2)
        assert good > bad

    def test_bad_k(self):
        with pytest.raises(BenchmarkError):
            recall_at_k(["a"], {"a"}, 0)

    def test_evaluate_and_aggregate(self):
        per_query = [
            evaluate_ranking(["a", "b"], {"a"}, ks=(1,)),
            evaluate_ranking(["b", "a"], {"a"}, ks=(1,)),
        ]
        agg = aggregate_rankings(per_query)
        assert agg["recall@1"] == 0.5
        assert agg["mrr"] == pytest.approx(0.75)

    def test_aggregate_empty(self):
        assert aggregate_rankings([]) == {}
