"""Tests for pipeline extensions: uncertainty gating and incremental
ingestion."""

import pytest

import repro.retrieval.lexical as lexical_module
import repro.retrieval.topology as topology_module
from repro.bench.runner import build_hybrid_system, generate_lake
from repro.extraction import TableGenerator
from repro.graphindex import NODE_ENTITY
from repro.metering import TAGGING_CALLS, CostMeter
from repro.qa import HybridQAPipeline
from repro.slm import SLMConfig, SmallLanguageModel
from repro.text.ner import TYPE_PRODUCT, Gazetteer
from repro.text.stopwords import content_stems
from repro.text.tokenizer import split_sentences
from tests.conftest import matches_number

CURATED_SQL = [
    "CREATE TABLE products (pid INT PRIMARY KEY, name TEXT, price FLOAT)",
    "CREATE TABLE sales (sid INT PRIMARY KEY, pid INT, quarter TEXT, "
    "amount FLOAT)",
    "INSERT INTO products VALUES (1, 'Alpha Widget', 19.99), "
    "(2, 'Beta Gadget', 29.99)",
    "INSERT INTO sales VALUES (1, 1, 'q2', 120.0), (2, 2, 'q2', 180.0)",
]

REVIEWS = [
    ("rev1", "Satisfaction with the Alpha Widget increased 12% in Q2 "
             "2024. Stores restocked quickly."),
]


def make_pipeline():
    gaz = Gazetteer()
    gaz.add(TYPE_PRODUCT, ["Alpha Widget", "Beta Gadget"])
    slm = SmallLanguageModel(SLMConfig(seed=0), gazetteer=gaz,
                             meter=CostMeter())
    pipe = HybridQAPipeline(slm, meter=CostMeter())
    pipe.add_sql(CURATED_SQL)
    pipe.declare_entity_columns("products", ["name"])
    pipe.add_texts(REVIEWS)
    pipe.register_synonym("sales", "sales", "amount")
    pipe.register_join("sales", "pid", "products", "pid")
    pipe.generate_table("review_facts")
    pipe.build()
    return pipe


class TestAnswerWithUncertainty:
    def test_sql_answer_skips_sampling(self):
        pipe = make_pipeline()
        answer, estimate = pipe.answer_with_uncertainty(
            "Find the total sales of all products in Q2."
        )
        assert matches_number(answer, 300.0)
        assert estimate is None
        assert answer.metadata["needs_review"] is False

    def test_text_answer_gets_estimate(self):
        pipe = make_pipeline()
        answer, estimate = pipe.answer_with_uncertainty(
            "What did stores do after the Alpha Widget restock?",
            n_samples=4, seed=3,
        )
        if estimate is not None:
            assert estimate.n_samples == 4
            assert "needs_review" in answer.metadata
            assert "semantic_entropy" in answer.metadata

    def test_review_flag_on_unanswerable(self):
        pipe = make_pipeline()
        answer, estimate = pipe.answer_with_uncertainty(
            "How much did warranty claims for the Beta Gadget shift?",
            n_samples=6, temperature=1.2, review_threshold=0.3, seed=5,
        )
        # Unanswerable from the lake: either abstains (no estimate) or
        # the samples scatter and the gate flags review.
        if estimate is not None:
            assert answer.metadata["needs_review"] or \
                estimate.n_clusters == 1


class TestIncrementalIngest:
    def test_new_fact_becomes_answerable(self):
        pipe = make_pipeline()
        before = pipe.answer(
            "How much did satisfaction with the Beta Gadget change "
            "in Q3 2024?"
        )
        assert not matches_number(before, 30.0)
        pipe.ingest_incremental([
            ("rev2", "Satisfaction with the Beta Gadget decreased 30% "
                     "in Q3 2024. Returns were processed slowly."),
        ])
        after = pipe.answer(
            "How much did satisfaction with the Beta Gadget change "
            "in Q3 2024?"
        )
        assert matches_number(after, -30.0) or "30" in after.text

    def test_graph_grows_incrementally(self):
        pipe = make_pipeline()
        nodes_before = pipe.graph.n_nodes
        pipe.ingest_incremental(
            [("rev9", "The Beta Gadget shipped to new regions in Q4 "
                      "2024.")],
        )
        assert pipe.graph.n_nodes > nodes_before

    def test_generated_table_refreshed(self):
        pipe = make_pipeline()
        count_before = pipe.db.execute(
            "SELECT COUNT(*) FROM review_facts"
        ).scalar()
        pipe.ingest_incremental([
            ("rev3", "Satisfaction with the Beta Gadget increased 5% "
                     "in Q4 2024."),
        ])
        count_after = pipe.db.execute(
            "SELECT COUNT(*) FROM review_facts"
        ).scalar()
        assert count_after > count_before

    def test_old_answers_still_work(self):
        pipe = make_pipeline()
        pipe.ingest_incremental([("rev4", "Nothing numeric here.")])
        answer = pipe.answer("Find the total sales of all products in Q2.")
        assert matches_number(answer, 300.0)

    def test_requires_built_pipeline(self):
        gaz = Gazetteer()
        slm = SmallLanguageModel(SLMConfig(seed=0), gazetteer=gaz,
                                 meter=CostMeter())
        pipe = HybridQAPipeline(slm, meter=CostMeter())
        pipe.add_sql(CURATED_SQL)
        from repro.errors import ReproError
        with pytest.raises(ReproError):
            pipe.ingest_incremental([("x", "text")])


class TestIncrementalTableRegeneration:
    """Regeneration after an ingest reuses the stored documents' facts."""

    # Ids sorting before, between and after the lake's ``review-NNN``
    # ids, then one stored id re-added with a different fact.
    INGESTS = [
        ("aaa-first", "Customer satisfaction with the Gamma Widget "
                      "increased 9% in Q1 2025. Stores restocked."),
        ("review-0205", "The loading dock was repainted over the long "
                        "weekend."),
        ("zzz-last", "Customer satisfaction with the Gamma Widget "
                     "decreased 4% in Q2 2025."),
        ("review-003", "Customer satisfaction with the Gamma Widget "
                       "increased 33% in Q4 2024."),
    ]

    def test_table_equals_fresh_build_and_ingest_tags_new_text_only(self):
        lake = generate_lake("ecommerce", 7)
        stored = sorted(doc_id for doc_id, _ in lake.review_texts)
        assert stored[0] > "aaa-first" and stored[-1] < "zzz-last"
        assert "review-020" < "review-0205" < "review-021"
        _, pipe = build_hybrid_system(lake, 7)
        for doc_id, text in self.INGESTS:
            with pipe.meter.measure() as work:
                pipe.ingest_incremental([(doc_id, text)])
            # The graph builder tags each new chunk, the extractor each
            # new sentence; no stored document is tagged again, whether
            # the call appends or replaces.
            assert work[TAGGING_CALLS] <= (
                len(split_sentences(text))
                + len(pipe.text_store.chunks_of(doc_id))
            )

        upfront = generate_lake("ecommerce", 7)
        replaced = dict(upfront.review_texts)
        replaced.update(self.INGESTS)
        upfront.review_texts = list(replaced.items())
        _, fresh = build_hybrid_system(upfront, 7)
        got, want = (p.db.table("review_facts") for p in (pipe, fresh))
        assert got.schema == want.schema
        assert list(got.rows()) == list(want.rows())

    def test_declaring_entity_columns_re_extracts_everything(self):
        pipe = make_pipeline()
        pipe.ingest_incremental([
            ("rev2", "Satisfaction with the travel kettle increased 5% "
                     "in Q4 2024."),
        ])
        table = pipe.db.table("review_facts")
        assert "travel kettle" not in table.column_values("subject")
        # The name enters the gazetteer: facts extracted without it are
        # stale, so the next ingest re-reads rev1 and rev2 as well.
        pipe.add_sql(["INSERT INTO products VALUES (3, 'travel kettle', 9.5)"])
        pipe.declare_entity_columns("products", ["name"])
        stored_sentences = sum(
            len(split_sentences(pipe.text_store.document(doc_id)))
            for doc_id in pipe.text_store.doc_ids()
        )
        with pipe.slm.meter.measure() as work:
            pipe.ingest_incremental([("rev3", "Nothing numeric here.")])
        assert work[TAGGING_CALLS] > stored_sentences
        table = pipe.db.table("review_facts")
        assert "travel kettle" in table.column_values("subject")

    def test_table_survives_an_ingest_that_finds_no_facts(self):
        pipe = make_pipeline()
        pipe.text_store.remove("rev1")  # the only fact-bearing document
        pipe.ingest_incremental([("rev5", "Nothing numeric here.")])
        # Regeneration found nothing: the old rows stay, and the table
        # stays registered so its synonyms and later refreshes survive.
        assert pipe._generated_tables == ["review_facts"]
        assert len(pipe.db.table("review_facts")) == 1
        pipe.ingest_incremental([
            ("rev6", "Satisfaction with the Beta Gadget increased 7% "
                     "in Q4 2024."),
        ])
        assert pipe._generated_tables == ["review_facts"]
        table = pipe.db.table("review_facts")
        assert table.column_values("subject") == ["beta gadget"]
        answer = pipe.answer(
            "What is the average increase of the Beta Gadget?"
        )
        assert matches_number(answer, 7.0)


class TestAppendTouchesOnlyTheDelta:
    """What one ``ingest_incremental`` append analyses and rewrites."""

    @staticmethod
    def _record(pipe, monkeypatch):
        mutations, analysed = [], []
        pipe.db.add_mutation_listener(mutations.append)

        def recorder(text):
            analysed.append(text)
            return content_stems(text)

        for module in (lexical_module, topology_module):
            monkeypatch.setattr(module, "content_stems", recorder)
        return mutations, analysed

    @staticmethod
    def _new_text(pipe, doc_id, entities_before):
        """Chunk texts of *doc_id* plus labels of entity nodes it added."""
        return sorted(
            [chunk.text for chunk in pipe.text_store.chunks_of(doc_id)]
            + [node.label for node in pipe.graph.nodes(NODE_ENTITY)
               if node.node_id not in entities_before]
        )

    def test_fact_less_text_touches_no_table_and_no_stored_chunk(
            self, monkeypatch):
        pipe = make_pipeline()
        table = pipe.db.table("review_facts")
        rows = list(table.rows())
        entities = {n.node_id for n in pipe.graph.nodes(NODE_ENTITY)}
        mutations, analysed = self._record(pipe, monkeypatch)
        pipe.ingest_incremental([
            ("rev4", "The loading dock was repainted. Visitors sign in."),
        ])
        assert mutations == []
        assert pipe.db.table("review_facts") is table
        assert list(table.rows()) == rows
        assert sorted(analysed) == self._new_text(pipe, "rev4", entities)

    def test_one_new_fact_recreates_the_table(self, monkeypatch):
        pipe = make_pipeline()
        table = pipe.db.table("review_facts")
        entities = {n.node_id for n in pipe.graph.nodes(NODE_ENTITY)}
        mutations, analysed = self._record(pipe, monkeypatch)
        pipe.ingest_incremental([
            ("rev3", "Satisfaction with the Beta Gadget increased 5% "
                     "in Q4 2024."),
        ])
        assert mutations == ["drop_table", "create_table"]
        assert sorted(analysed) == self._new_text(pipe, "rev3", entities)
        recreated = pipe.db.table("review_facts")
        assert recreated is not table
        scratch = TableGenerator(pipe.slm).generate("review_facts", [
            (doc_id, pipe.text_store.document(doc_id))
            for doc_id in pipe.text_store.doc_ids()
        ]).table
        assert recreated.schema == scratch.schema
        assert list(recreated.rows()) == list(scratch.rows())
        assert len(recreated) == len(table) + 1


class TestReplaceIsADelta:
    """Re-ingesting a stored id swaps its chunks in the live graph: the
    old chunk's entities and edges go, only the new text is tagged."""

    @staticmethod
    def _describe(graph, node_id):
        return (graph.node(node_id).payload, [
            (edge.kind, edge.label, edge.target, edge.weight)
            for edge, _ in graph.neighbors(node_id)
        ])

    def test_replaced_chunk_equals_a_fresh_build(self):
        _, pipe = build_hybrid_system(generate_lake("ecommerce", 7), 7)
        node_id = "chunk:filler-00#0"
        assert "entity:online" in {
            edge.target for edge, _ in pipe.graph.neighbors(node_id)}
        text = "Nothing at all was noted here."
        graph = pipe.graph
        rebuilds = []
        pipe.add_rebuild_listener(lambda: rebuilds.append(1))
        with pipe.meter.measure() as work:
            pipe.ingest_incremental([("filler-00", text)])
        assert rebuilds == [1]
        assert pipe.graph is graph
        # The new chunk and its one sentence; nothing stored re-tagged.
        assert work[TAGGING_CALLS] == 1 + len(split_sentences(text))
        got = self._describe(pipe.graph, node_id)
        assert got[0]["text"] == text
        assert "entity:online" not in {target for _, _, target, _ in got[1]}
        stats = pipe.graph.stats()
        pipe.build()
        assert got == self._describe(pipe.graph, node_id)
        assert stats == pipe.graph.stats()

    def test_same_id_twice_in_one_call_is_a_replacement(self):
        pipe = make_pipeline()
        pipe.ingest_incremental([
            ("rev7", "Satisfaction with the Beta Gadget increased 5% "
                     "in Q4 2024."),
            ("rev7", "Nothing at all was noted here."),
        ])
        payload, edges = self._describe(pipe.graph, "chunk:rev7#0")
        assert payload["text"] == "Nothing at all was noted here."
        assert "entity:beta gadget" not in {t for _, _, t, _ in edges}

    def test_appends_after_a_replacement_are_incremental_again(self):
        pipe = make_pipeline()
        pipe.ingest_incremental([("rev1", REVIEWS[0][1] + " Really.")])
        graph = pipe.graph
        with pipe.slm.meter.measure() as work:
            pipe.ingest_incremental([("rev8", "Nothing numeric here.")])
        assert pipe.graph is graph
        assert work[TAGGING_CALLS] == 2  # the new chunk + its sentence
