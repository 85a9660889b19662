"""End-to-end coverage of money/amount facts through the pipeline.

The extraction layer normalizes "$1.2 million" into a float cell; this
suite verifies the full path: free text → generated table → synthesized
query → numeric answer.
"""

import pytest

from repro.extraction import ATTR_AMOUNT, AttributeExtractor
from repro.metering import CostMeter
from repro.qa import HybridQAPipeline
from repro.slm import SLMConfig, SmallLanguageModel
from repro.text.ner import TYPE_PRODUCT, Gazetteer
from tests.conftest import matches_number

REPORTS = [
    ("fin1", "The Alpha Widget generated $1.2 million in revenue "
             "during Q2 2024. Analysts were pleased."),
    ("fin2", "The Beta Gadget generated $800,000 in revenue during "
             "Q2 2024. Margins stayed thin."),
]


def make_slm():
    gaz = Gazetteer()
    gaz.add(TYPE_PRODUCT, ["Alpha Widget", "Beta Gadget"])
    return SmallLanguageModel(SLMConfig(seed=0), gazetteer=gaz,
                              meter=CostMeter())


class TestMoneyExtraction:
    def test_million_normalized(self):
        facts = AttributeExtractor(make_slm()).extract(REPORTS[0][1])
        assert facts and facts[0].get(ATTR_AMOUNT) == pytest.approx(1.2e6)

    def test_grouped_thousands_normalized(self):
        facts = AttributeExtractor(make_slm()).extract(REPORTS[1][1])
        assert facts[0].get(ATTR_AMOUNT) == pytest.approx(800000.0)

    def test_subject_and_quarter_attached(self):
        facts = AttributeExtractor(make_slm()).extract(REPORTS[0][1])
        assert facts[0].get("subject") == "alpha widget"
        assert facts[0].get("quarter") == "Q2"
        assert facts[0].get("year") == 2024


class TestMoneyThroughPipeline:
    @pytest.fixture
    def pipeline(self):
        pipe = HybridQAPipeline(make_slm(), meter=CostMeter())
        pipe.add_sql([
            "CREATE TABLE products (pid INT PRIMARY KEY, name TEXT)",
            "INSERT INTO products VALUES (1, 'Alpha Widget'), "
            "(2, 'Beta Gadget')",
        ])
        pipe.declare_entity_columns("products", ["name"])
        pipe.add_texts(REPORTS)
        pipe.generate_table("fin_facts")
        pipe.build()
        return pipe

    def test_generated_amount_column(self, pipeline):
        rs = pipeline.db.execute(
            "SELECT subject, amount FROM fin_facts ORDER BY amount DESC"
        )
        assert rs.rows[0] == ("alpha widget", 1.2e6)

    def test_revenue_question(self, pipeline):
        answer = pipeline.answer(
            "What is the total revenue of the Alpha Widget?"
        )
        assert matches_number(answer, 1.2e6)

    def test_sum_across_products(self, pipeline):
        answer = pipeline.answer(
            "Find the total revenue of all products in Q2 2024."
        )
        assert matches_number(answer, 2.0e6)

    def test_comparison_on_money(self, pipeline):
        answer = pipeline.answer(
            "Compare the revenue of the Alpha Widget and the "
            "Beta Gadget in Q2 2024."
        )
        assert answer.metadata.get("winner") == "alpha widget"
