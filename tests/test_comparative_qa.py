"""Tests for comparative Multi-Entity QA."""

import pytest

from repro.metering import CostMeter
from repro.qa import HybridQAPipeline, detect_comparison
from repro.qa.answer import Answer
from repro.qa.compare import ComparativeQA, decompose
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
    ("rev1", "Satisfaction with the Alpha Widget increased 12% in "
             "Q2 2024. Buyers were pleased."),
    ("rev2", "Satisfaction with the Beta Gadget decreased 30% in "
             "Q2 2024. Complaints multiplied."),
]


def make_slm():
    gaz = Gazetteer()
    gaz.add(TYPE_PRODUCT, ["Alpha Widget", "Beta Gadget"])
    return SmallLanguageModel(SLMConfig(seed=0), gazetteer=gaz,
                              meter=CostMeter())


def make_pipeline():
    pipe = HybridQAPipeline(make_slm(), meter=CostMeter())
    pipe.add_sql(CURATED_SQL)
    pipe.declare_entity_columns("products", ["name"])
    pipe.add_texts(REVIEWS)
    pipe.register_synonym("sales", "sales", "amount")
    pipe.register_join("sales", "pid", "products", "pid")
    pipe.generate_table("review_facts")
    pipe.build()
    return pipe


class TestDetection:
    def test_compare_cue_with_two_entities(self):
        frame = detect_comparison(
            "Compare the sales of the Alpha Widget and the Beta Gadget "
            "in Q2", make_slm(),
        )
        assert frame is not None
        assert frame.entity_names == ["alpha widget", "beta gadget"]

    def test_versus_cue(self):
        frame = detect_comparison(
            "Alpha Widget vs Beta Gadget satisfaction", make_slm()
        )
        assert frame is not None

    def test_no_cue_returns_none(self):
        assert detect_comparison(
            "What is the sales of the Alpha Widget?", make_slm()
        ) is None

    def test_single_entity_returns_none(self):
        assert detect_comparison(
            "Compare the quarterly sales of the Alpha Widget", make_slm()
        ) is None


class TestDecomposition:
    def test_subquestions_single_entity_each(self):
        frame = detect_comparison(
            "Compare the sales of the Alpha Widget and the Beta Gadget "
            "in Q2", make_slm(),
        )
        subs = dict(decompose(frame))
        assert set(subs) == {"alpha widget", "beta gadget"}
        assert "Beta" not in subs["alpha widget"]
        assert "Alpha" not in subs["beta gadget"]
        assert subs["alpha widget"].startswith("What is")
        assert subs["alpha widget"].endswith("?")

    def test_conjunction_tidied(self):
        frame = detect_comparison(
            "Compare the satisfaction change of the Alpha Widget and "
            "the Beta Gadget in Q2 2024.", make_slm(),
        )
        for _, sub in decompose(frame):
            assert " and ?" not in sub
            assert "  " not in sub


class TestEndToEnd:
    def test_structured_comparison(self):
        pipe = make_pipeline()
        answer = pipe.answer(
            "Compare the sales of the Alpha Widget and the Beta Gadget "
            "in Q2"
        )
        assert not answer.abstained
        assert answer.metadata["route"] == "comparison"
        comparison = answer.metadata["comparison"]
        assert comparison["alpha widget"] == pytest.approx(120.0)
        assert comparison["beta gadget"] == pytest.approx(180.0)
        assert answer.metadata["winner"] == "beta gadget"
        assert "higher" in answer.text

    def test_cross_modal_comparison(self):
        pipe = make_pipeline()
        answer = pipe.answer(
            "Compare the satisfaction change of the Alpha Widget and "
            "the Beta Gadget in Q2 2024."
        )
        assert not answer.abstained
        comparison = answer.metadata["comparison"]
        assert comparison["alpha widget"] == pytest.approx(12.0)
        assert comparison["beta gadget"] == pytest.approx(-30.0)
        assert answer.metadata["winner"] == "alpha widget"

    def test_provenance_combined(self):
        pipe = make_pipeline()
        answer = pipe.answer(
            "Compare the sales of the Alpha Widget and the Beta Gadget "
            "in Q2"
        )
        assert len(answer.provenance) >= 2

    def test_non_comparison_unaffected(self):
        pipe = make_pipeline()
        answer = pipe.answer("Find the total sales of all products in Q2.")
        assert matches_number(answer, 300.0)
        assert answer.metadata["route"] != "comparison"

    def test_unanswerable_comparison_falls_through(self):
        comparer = ComparativeQA(
            make_slm(), lambda q: Answer.abstain("hybrid", "nope")
        )
        answer = comparer.try_answer(
            "Compare the zorp of the Alpha Widget and the Beta Gadget"
        )
        assert answer is not None and answer.abstained
