"""Tests for range-filter synthesis and cross-engine consistency."""

import pytest

from repro.metering import CostMeter
from repro.qa import HybridQAPipeline
from repro.qa.answer import Answer
from repro.qa.executor import cross_check
from repro.semql import (
    FilterSpec, OperatorSynthesizer, QueryCompiler, SchemaCatalog, analyze,
)
from repro.slm import SLMConfig, SmallLanguageModel
from repro.storage.relational import Database
from repro.text.ner import TYPE_PRODUCT, Gazetteer


class TestRangeIntents:
    def test_between_parsed_as_two_comparisons(self):
        frame = analyze("sales between 100 and 200")
        ops = sorted((c.op, c.value) for c in frame.comparisons)
        assert ops == [("<=", 200.0), (">=", 100.0)]

    def test_between_percent(self):
        frame = analyze("an increase between 5% and 15%")
        assert all(c.is_percent for c in frame.comparisons)

    def test_between_reversed_bounds_normalized(self):
        frame = analyze("amounts between 200 and 100")
        ops = dict((c.op, c.value) for c in frame.comparisons)
        assert ops[">="] == 100.0 and ops["<="] == 200.0

    def test_range_does_not_double_count(self):
        frame = analyze("sales between 100 and 200")
        assert len(frame.comparisons) == 2

    def test_plain_comparison_still_works(self):
        frame = analyze("sales above 150")
        assert [(c.op, c.value) for c in frame.comparisons] == \
            [(">", 150.0)]


@pytest.fixture
def setting():
    db = Database(meter=CostMeter())
    db.execute("CREATE TABLE sales (sid INT PRIMARY KEY, quarter TEXT, "
               "amount FLOAT)")
    db.execute("INSERT INTO sales VALUES (1, 'q1', 80.0), "
               "(2, 'q1', 150.0), (3, 'q2', 190.0), (4, 'q2', 250.0)")
    catalog = SchemaCatalog(db)
    catalog.register_synonym("sales", "sales", "amount")
    catalog.build_value_index()
    return OperatorSynthesizer(catalog), QueryCompiler(db)


class TestRangeSynthesis:
    def test_count_in_range(self, setting):
        synthesizer, compiler = setting
        spec = synthesizer.synthesize(
            "Count sales with an amount between 100 and 200"
        )
        assert FilterSpec("amount", ">=", 100.0) in spec.filters
        assert FilterSpec("amount", "<=", 200.0) in spec.filters
        assert compiler.execute(spec).scalar() == 2

    def test_sum_in_range(self, setting):
        synthesizer, compiler = setting
        spec = synthesizer.synthesize(
            "Find the total sales between 100 and 260"
        )
        assert compiler.execute(spec).scalar() == pytest.approx(590.0)


def make_pipeline():
    gaz = Gazetteer()
    gaz.add(TYPE_PRODUCT, ["Alpha Widget"])
    slm = SmallLanguageModel(SLMConfig(seed=0), gazetteer=gaz,
                             meter=CostMeter())
    pipe = HybridQAPipeline(slm, meter=CostMeter())
    pipe.add_sql([
        "CREATE TABLE products (pid INT PRIMARY KEY, name TEXT)",
        "INSERT INTO products VALUES (1, 'Alpha Widget')",
    ])
    pipe.declare_entity_columns("products", ["name"])
    pipe.add_texts([
        ("rev1", "Satisfaction with the Alpha Widget increased 12% in "
                 "Q2 2024."),
    ])
    pipe.generate_table("facts")
    pipe.build()
    return pipe


class TestCrossCheck:
    def test_agreement_boosts_confidence(self):
        pipe = make_pipeline()
        # Hybrid-routed question where the generated table and the text
        # path yield the same number.
        answer = pipe.answer(
            "How much did satisfaction with the Alpha Widget change "
            "in Q2 2024?"
        )
        if answer.metadata.get("cross_check") == "agree":
            assert answer.confidence >= 0.9

    def test_cross_check_static_agree(self):
        a = Answer(text="12", value=12.0, confidence=0.8, grounded=True)
        b = Answer(text="It is 12%.", value=12.0, confidence=0.5,
                   grounded=True)
        checked = cross_check(a, [a, b])
        assert checked.metadata["cross_check"] == "agree"
        assert checked.confidence == pytest.approx(0.88)
        # A new value: the candidate itself is untouched.
        assert a.confidence == 0.8 and "cross_check" not in a.metadata

    def test_cross_check_static_disagree(self):
        a = Answer(text="12", value=12.0, confidence=0.8, grounded=True)
        b = Answer(text="It is 40%.", value=40.0, confidence=0.5,
                   grounded=True)
        checked = cross_check(a, [a, b])
        assert checked.metadata["cross_check"] == "disagree"

    def test_cross_check_skips_non_numeric(self):
        a = Answer(text="alpha", value="alpha", confidence=0.8)
        b = Answer(text="beta", value="beta", confidence=0.5)
        assert cross_check(a, [a, b]) is a

    def test_cross_check_single_candidate_noop(self):
        a = Answer(text="12", value=12.0, confidence=0.8)
        assert cross_check(a, [a]) is a
