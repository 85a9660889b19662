"""Tests for whole-pipeline save/load."""

import pytest

from repro.errors import ReproError
from repro.metering import CostMeter, TAGGING_CALLS
from repro.qa import HybridQAPipeline, load_pipeline, save_pipeline
from repro.slm import SLMConfig, SmallLanguageModel
from repro.text.ner import TYPE_PRODUCT, Gazetteer
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
             "2024. Shipping improved."),
    ("rev2", "Satisfaction with the Beta Gadget decreased 30% in Q2 "
             "2024. Complaints grew."),
]


def build_pipeline():
    gaz = Gazetteer()
    gaz.add(TYPE_PRODUCT, ["Alpha Widget", "Beta Gadget"])
    slm = SmallLanguageModel(SLMConfig(seed=0), gazetteer=gaz,
                             meter=CostMeter())
    pipe = HybridQAPipeline(slm, meter=CostMeter())
    pipe.add_sql(CURATED_SQL)
    pipe.declare_entity_columns("products", ["name"])
    pipe.add_texts(REVIEWS)
    pipe.add_documents([("log1", {"event": "return",
                                  "product": "Beta Gadget"})])
    pipe.register_synonym("sales", "sales", "amount")
    pipe.register_join("sales", "pid", "products", "pid")
    pipe.register_display_column("products", "name")
    pipe.generate_table("review_facts")
    pipe.build()
    return pipe


QUESTIONS_AND_GOLD = [
    ("Find the total sales of all products in Q2.", 300.0),
    ("What is the total sales of the Alpha Widget?", 120.0),
    ("What is the average increase of the Alpha Widget?", 12.0),
]


class TestSaveLoad:
    def test_roundtrip_answers_identically(self, tmp_path):
        original = build_pipeline()
        save_pipeline(original, str(tmp_path))
        restored = load_pipeline(str(tmp_path), meter=CostMeter())
        for question, gold in QUESTIONS_AND_GOLD:
            assert matches_number(restored.answer(question), gold), question

    def test_graph_identical(self, tmp_path):
        original = build_pipeline()
        save_pipeline(original, str(tmp_path))
        restored = load_pipeline(str(tmp_path), meter=CostMeter())
        assert restored.graph.stats() == original.graph.stats()

    def test_load_skips_retagging(self, tmp_path):
        original = build_pipeline()
        save_pipeline(original, str(tmp_path))
        meter = CostMeter()
        restored = load_pipeline(str(tmp_path), meter=meter)
        # Tagging only happens for queries, not for index rebuilds:
        # loading must not re-tag the corpus.
        assert meter.get(TAGGING_CALLS) == 0
        assert restored.graph.n_nodes == original.graph.n_nodes

    def test_comparison_still_works_after_load(self, tmp_path):
        original = build_pipeline()
        save_pipeline(original, str(tmp_path))
        restored = load_pipeline(str(tmp_path), meter=CostMeter())
        answer = restored.answer(
            "Compare the satisfaction change of the Alpha Widget and "
            "the Beta Gadget in Q2 2024."
        )
        assert answer.metadata.get("winner") == "alpha widget"

    def test_incremental_after_load(self, tmp_path):
        original = build_pipeline()
        save_pipeline(original, str(tmp_path))
        restored = load_pipeline(str(tmp_path), meter=CostMeter())
        restored.ingest_incremental([
            ("rev3", "Satisfaction with the Beta Gadget increased 7% "
                     "in Q4 2024."),
        ])
        answer = restored.answer(
            "How much did satisfaction with the Beta Gadget change in "
            "Q4 2024?"
        )
        assert matches_number(answer, 7.0) or "7" in answer.text

    def test_first_ingest_after_load_rebuilds_once(self, tmp_path):
        save_pipeline(build_pipeline(), str(tmp_path))
        meter = CostMeter()
        restored = load_pipeline(str(tmp_path), meter=meter)
        graph = restored.graph
        # The restored graph sits in a live builder: each ingest tags
        # its one new chunk and sentence into the same graph. The table
        # generator's kept facts are not saved, so its first refresh
        # also re-reads the two stored documents' four sentences.
        for doc_id, stored_sentences in (("rev3", 4), ("rev4", 0)):
            version = restored.version
            with meter.measure() as work:
                restored.ingest_incremental([
                    (doc_id, "Satisfaction with the Beta Gadget "
                             "increased 7% in Q4 2024."),
                ])
            assert restored.graph is graph
            assert work[TAGGING_CALLS] == 1 + 1 + stored_sentences
            # One index/engines/version tail per ingest (serving caches
            # invalidate once).
            assert restored.version == version + 1
        assert len(restored.db.table("review_facts")) == 4

    def test_unbuilt_pipeline_rejected(self, tmp_path):
        gaz = Gazetteer()
        slm = SmallLanguageModel(SLMConfig(seed=0), gazetteer=gaz,
                                 meter=CostMeter())
        pipe = HybridQAPipeline(slm, meter=CostMeter())
        with pytest.raises(ReproError):
            save_pipeline(pipe, str(tmp_path))

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ReproError):
            load_pipeline(str(tmp_path / "nowhere"))

    def test_documents_restored(self, tmp_path):
        original = build_pipeline()
        save_pipeline(original, str(tmp_path))
        restored = load_pipeline(str(tmp_path), meter=CostMeter())
        assert restored.doc_store.get("log1")["event"] == "return"
