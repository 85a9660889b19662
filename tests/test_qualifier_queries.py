"""Tests for qualifier-style NL queries over generated tables:
entity listing with metric ranges and directional counting."""

import pytest

from repro.metering import CostMeter
from repro.qa import HybridQAPipeline
from repro.slm import SLMConfig, SmallLanguageModel
from repro.text.ner import TYPE_PRODUCT, Gazetteer
from tests.conftest import matches_number

REVIEWS = [
    ("r1", "Satisfaction with the Alpha Widget increased 25% in Q2 "
           "2024."),
    ("r2", "Satisfaction with the Beta Gadget increased 5% in Q2 "
           "2024."),
    ("r3", "Satisfaction with the Gamma Gizmo decreased 12% in Q2 "
           "2024."),
]


@pytest.fixture(scope="module")
def pipe():
    gaz = Gazetteer()
    gaz.add(TYPE_PRODUCT, ["Alpha Widget", "Beta Gadget", "Gamma Gizmo"])
    slm = SmallLanguageModel(SLMConfig(seed=0), gazetteer=gaz,
                             meter=CostMeter())
    pipe = HybridQAPipeline(slm, meter=CostMeter())
    pipe.add_sql([
        "CREATE TABLE products (pid INT PRIMARY KEY, name TEXT)",
        "INSERT INTO products VALUES (1, 'Alpha Widget'), "
        "(2, 'Beta Gadget'), (3, 'Gamma Gizmo')",
    ])
    pipe.declare_entity_columns("products", ["name"])
    pipe.add_texts(REVIEWS)
    pipe.generate_table("facts")
    pipe.build()
    return pipe


class TestQualifierListing:
    def test_list_with_range_projects_entities(self, pipe):
        answer = pipe.answer("List products with an increase above 10%")
        assert answer.contains_text("alpha widget")
        assert not answer.contains_text("beta gadget")

    def test_list_all_above_negative(self, pipe):
        answer = pipe.answer(
            "List products with a change above -20%"
        )
        assert answer.contains_text("gamma gizmo")

    def test_value_question_still_projects_metric(self, pipe):
        answer = pipe.answer(
            "How much did satisfaction with the Beta Gadget change in "
            "Q2 2024?"
        )
        assert matches_number(answer, 5.0)


class TestDirectionalCounting:
    def test_count_decreases(self, pipe):
        answer = pipe.answer(
            "How many products had a satisfaction decrease?"
        )
        assert matches_number(answer, 1.0)

    def test_count_increases(self, pipe):
        answer = pipe.answer(
            "How many products had a satisfaction increase?"
        )
        assert matches_number(answer, 2.0)

    def test_explicit_threshold_not_overridden(self, pipe):
        answer = pipe.answer(
            "Count facts with an increase of more than 20%"
        )
        assert matches_number(answer, 1.0)
