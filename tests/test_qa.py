"""Tests for Answer, TableQA, TextQA, federation and the hybrid pipeline."""

import pytest

from repro.errors import ReproError
from repro.metering import CostMeter
from repro.qa import (
    ANSWER_SYSTEM_HYBRID, ANSWER_SYSTEM_RAG, ANSWER_SYSTEM_TEXT2SQL,
    Answer, FederatedRouter, HybridQAPipeline, ROUTE_HYBRID,
    ROUTE_STRUCTURED, ROUTE_UNSTRUCTURED, TableQAEngine, TextQAEngine,
    best_answer,
)
from repro.retrieval import BM25Retriever
from repro.semql import SchemaCatalog
from repro.slm import SLMConfig, SmallLanguageModel
from repro.storage.relational import Database
from repro.text.chunker import Chunker, ChunkerConfig
from repro.text.ner import TYPE_PRODUCT, Gazetteer
from tests.conftest import matches_number


def make_slm():
    gaz = Gazetteer()
    gaz.add(TYPE_PRODUCT, ["Alpha Widget", "Beta Gadget"])
    return SmallLanguageModel(SLMConfig(seed=0), gazetteer=gaz,
                              meter=CostMeter())


CURATED_SQL = [
    "CREATE TABLE products (pid INT PRIMARY KEY, name TEXT, "
    "manufacturer TEXT, price FLOAT)",
    "CREATE TABLE sales (sid INT PRIMARY KEY, pid INT, quarter TEXT, "
    "amount FLOAT)",
    "INSERT INTO products VALUES (1, 'Alpha Widget', 'Acme', 19.99), "
    "(2, 'Beta Gadget', 'Globex', 29.99)",
    "INSERT INTO sales VALUES (1, 1, 'q1', 100.0), (2, 1, 'q2', 120.0), "
    "(3, 2, 'q2', 180.0)",
]

REVIEWS = [
    ("rev1", "Customers love the Alpha Widget. "
             "Alpha Widget satisfaction rose 12% in Q2."),
    ("rev2", "The Beta Gadget disappointed buyers. "
             "Beta Gadget returns increased 30% in Q2."),
]


class TestAnswer:
    def test_abstain(self):
        answer = Answer.abstain(ANSWER_SYSTEM_RAG, "why not")
        assert answer.abstained and answer.metadata["reason"] == "why not"

    def test_contains_text(self):
        assert Answer(text="It is Alpha Widget.").contains_text("alpha widget")
        assert Answer(text="", value=["Beta"]).contains_text("beta")
        assert not Answer(text="nope").contains_text("alpha")

    def test_best_answer_prefers_grounded(self):
        grounded = Answer(text="a", confidence=0.5, grounded=True)
        confident = Answer(text="b", confidence=0.9, grounded=False)
        assert best_answer([confident, grounded]) is grounded

    def test_best_answer_all_abstain(self):
        first = Answer.abstain("x")
        assert best_answer([first, Answer.abstain("y")]) is first

    def test_best_answer_empty(self):
        # Every-engine-down degrades to a typed abstention, not a raise.
        answer = best_answer([])
        assert answer.abstained
        assert "no candidate answers" in answer.metadata["reason"]


def make_tableqa():
    db = Database(meter=CostMeter())
    for sql in CURATED_SQL:
        db.execute(sql)
    catalog = SchemaCatalog(db)
    catalog.register_join("sales", "pid", "products", "pid")
    catalog.register_synonym("sales", "sales", "amount")
    catalog.register_display_column("products", "name")
    catalog.build_value_index()
    return TableQAEngine(db, catalog)


class TestTableQA:
    def test_scalar_answer(self):
        engine = make_tableqa()
        answer = engine.answer("Find the total sales of all products in Q2")
        assert answer.value == pytest.approx(300.0)
        assert answer.grounded and not answer.abstained
        assert answer.system == ANSWER_SYSTEM_TEXT2SQL

    def test_entity_answer(self):
        engine = make_tableqa()
        answer = engine.answer("What is the total sales of the Alpha Widget?")
        assert matches_number(answer, 220.0)

    def test_list_answer(self):
        engine = make_tableqa()
        answer = engine.answer("List products from Acme")
        assert answer.contains_text("alpha widget")

    def test_abstains_on_unstructured(self):
        engine = make_tableqa()
        answer = engine.answer(
            "What do customers complain about most in reviews?"
        )
        assert answer.abstained

    def test_plan_in_provenance(self):
        engine = make_tableqa()
        answer = engine.answer("Find the total sales of all products in Q2")
        assert answer.provenance and answer.provenance[0].startswith("sql:")


class TestTextQA:
    def make_engine(self):
        slm = make_slm()
        chunker = Chunker(ChunkerConfig(max_tokens=40, overlap_sentences=0))
        chunks = chunker.chunk_corpus(REVIEWS)
        retriever = BM25Retriever(meter=CostMeter())
        retriever.index(chunks)
        return TextQAEngine(retriever, slm, k=2, temperature=0.1)

    def test_grounded_answer(self):
        engine = self.make_engine()
        answer = engine.answer(
            "How much did Alpha Widget satisfaction increase?"
        )
        assert "12%" in answer.text
        assert answer.grounded and answer.provenance

    def test_scalar_extracted(self):
        engine = self.make_engine()
        answer = engine.answer(
            "How much did Beta Gadget returns increase?"
        )
        assert answer.value == 30.0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            TextQAEngine(BM25Retriever(meter=CostMeter()), make_slm(), k=0)


@pytest.fixture
def pipeline():
    pipe = HybridQAPipeline(make_slm(), meter=CostMeter())
    pipe.add_sql(CURATED_SQL)
    pipe.declare_entity_columns("products", ["name"])
    pipe.add_texts(REVIEWS)
    pipe.add_documents([
        ("log1", {"customer": "cust-1", "event": "return",
                  "product": "Beta Gadget"}),
    ])
    pipe.generate_table("review_facts")
    pipe.build()
    return pipe


class TestHybridPipeline:
    def test_structured_route(self, pipeline):
        decision = pipeline.route(
            "Find the total sales of all products in Q2"
        )
        assert decision.route == ROUTE_STRUCTURED

    def test_unstructured_route(self, pipeline):
        decision = pipeline.route("What did reviewers say about shipping?")
        assert decision.route == ROUTE_UNSTRUCTURED

    def test_structured_answer(self, pipeline):
        answer = pipeline.answer(
            "Find the total sales of all products in Q2"
        )
        assert matches_number(answer, 300.0)

    def test_cross_modal_answer_from_generated_table(self, pipeline):
        # The 12% fact exists only in unstructured reviews; it is
        # answerable because table generation structured it.
        answer = pipeline.answer(
            "What is the average increase of the Alpha Widget?"
        )
        assert matches_number(answer, 12.0)

    def test_text_fallback(self, pipeline):
        answer = pipeline.answer(
            "How much did Beta Gadget returns increase in Q2?"
        )
        assert matches_number(answer, 30.0) or "30%" in answer.text

    def test_generated_table_registered(self, pipeline):
        assert pipeline.db.has_table("review_facts")
        count = pipeline.db.execute(
            "SELECT COUNT(*) FROM review_facts"
        ).scalar()
        assert count >= 2

    def test_answer_before_build_raises(self):
        pipe = HybridQAPipeline(make_slm(), meter=CostMeter())
        pipe.add_sql(CURATED_SQL)
        with pytest.raises(ReproError):
            pipe.answer("anything")

    def test_generate_table_empty_ok(self):
        pipe = HybridQAPipeline(make_slm(), meter=CostMeter())
        pipe.add_sql(CURATED_SQL)
        pipe.declare_entity_columns("products", ["name"])
        pipe.add_texts([("t1", "Nothing quantitative said here at all.")])
        assert pipe.generate_table("facts") == 0
        pipe.build()
        answer = pipe.answer("Find the total sales of all products in Q2")
        assert matches_number(answer, 300.0)

    def test_route_metadata_attached(self, pipeline):
        answer = pipeline.answer(
            "Find the total sales of all products in Q2"
        )
        assert answer.metadata.get("route") == ROUTE_STRUCTURED

    def test_graph_property(self, pipeline):
        stats = pipeline.graph.stats()
        assert stats["n_chunks"] >= 2 and stats["n_entities"] >= 2
