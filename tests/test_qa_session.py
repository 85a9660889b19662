"""Tests for conversational follow-up resolution and CSV ingestion."""

import pytest

from repro.metering import CostMeter
from repro.qa import HybridQAPipeline, QASession
from repro.slm import SLMConfig, SmallLanguageModel
from repro.storage.csvio import read_csv
from repro.text.ner import TYPE_PRODUCT, Gazetteer
from tests.conftest import matches_number

CSV_SALES = (
    "sid,pid,quarter,amount\n"
    "1,1,q1,100.0\n"
    "2,1,q2,120.0\n"
    "3,1,q3,140.0\n"
    "4,2,q2,180.0\n"
    "5,2,q3,160.0\n"
)


@pytest.fixture(scope="module")
def pipe():
    gaz = Gazetteer()
    gaz.add(TYPE_PRODUCT, ["Alpha Widget", "Beta Gadget"])
    slm = SmallLanguageModel(SLMConfig(seed=0), gazetteer=gaz,
                             meter=CostMeter())
    pipe = HybridQAPipeline(slm, meter=CostMeter())
    pipe.add_sql([
        "CREATE TABLE products (pid INT PRIMARY KEY, name TEXT)",
        "INSERT INTO products VALUES (1, 'Alpha Widget'), "
        "(2, 'Beta Gadget')",
    ])
    table = read_csv("sales", CSV_SALES)
    pipe.db.create_table(table.schema)
    assert pipe.db.load_rows("sales", table.rows(), coerce=False) == 5
    pipe.declare_entity_columns("products", ["name"])
    pipe.add_texts([("r1", "The Alpha Widget pleased its buyers.")])
    pipe.register_synonym("sales", "sales", "amount")
    pipe.register_join("sales", "pid", "products", "pid")
    pipe.build()
    return pipe


class TestCSVIngestion:
    def test_schema_inferred(self, pipe):
        schema = pipe.db.table("sales").schema
        assert schema.column("amount").dtype.value == "float"
        assert schema.column("pid").dtype.value == "int"

    def test_queryable(self, pipe):
        assert matches_number(pipe.answer(
            "Find the total sales of all products in Q2."
        ), 300.0)


class TestFollowUps:
    def test_quarter_followup(self, pipe):
        session = QASession(pipe)
        first = session.ask(
            "What is the total sales of the Alpha Widget in Q2?"
        )
        assert matches_number(first, 120.0)
        second = session.ask("And in Q3?")
        assert matches_number(second, 140.0)
        assert "Q3" in second.metadata["rewritten"]

    def test_entity_followup(self, pipe):
        session = QASession(pipe)
        session.ask("What is the total sales of the Alpha Widget in Q2?")
        answer = session.ask("What about the Beta Gadget?")
        assert matches_number(answer, 180.0)
        assert "Beta Gadget" in answer.metadata["rewritten"]

    def test_chained_followups(self, pipe):
        session = QASession(pipe)
        session.ask("What is the total sales of the Alpha Widget in Q2?")
        session.ask("What about the Beta Gadget?")
        answer = session.ask("And in Q3?")
        # Quarter swap applies to the *resolved* previous question
        # (Beta Gadget), not the original.
        assert matches_number(answer, 160.0)

    def test_standalone_question_not_rewritten(self, pipe):
        session = QASession(pipe)
        session.ask("What is the total sales of the Alpha Widget in Q2?")
        answer = session.ask(
            "Find the total sales of all products in Q2."
        )
        assert "rewritten" not in answer.metadata
        assert matches_number(answer, 300.0)

    def test_first_question_never_followup(self, pipe):
        session = QASession(pipe)
        answer = session.ask("And in Q3?")
        assert "rewritten" not in answer.metadata

    def test_reset_clears_context(self, pipe):
        session = QASession(pipe)
        session.ask("What is the total sales of the Alpha Widget in Q2?")
        session.reset()
        answer = session.ask("And in Q3?")
        assert "rewritten" not in answer.metadata
