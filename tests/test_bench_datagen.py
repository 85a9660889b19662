"""Tests for the synthetic lakes, QA gold and the bench runner."""

import pytest

from repro.errors import BenchmarkError
from repro.metering import CostMeter
from repro.bench import (
    KIND_CROSS_MODAL, KIND_STRUCTURED_AGG, KIND_STRUCTURED_ENTITY,
    KIND_UNSTRUCTURED_FACT, HealthSpec, LakeSpec, QAPair,
    build_hybrid_system, build_rag_system, build_text2sql_system,
    generate_ecommerce_lake, generate_healthcare_lake, render_series,
    render_table, run_qa_suite,
)
from repro.qa.answer import Answer
from repro.storage.relational import Database


@pytest.fixture(scope="module")
def lake():
    return generate_ecommerce_lake(LakeSpec(n_products=6, seed=3))


@pytest.fixture(scope="module")
def health_lake():
    return generate_healthcare_lake(HealthSpec(n_drugs=4, seed=3))


class TestEcommerceLake:
    def test_deterministic(self):
        a = generate_ecommerce_lake(LakeSpec(n_products=4, seed=1))
        b = generate_ecommerce_lake(LakeSpec(n_products=4, seed=1))
        assert a.products == b.products
        assert a.review_texts == b.review_texts

    def test_different_seeds_differ(self):
        a = generate_ecommerce_lake(LakeSpec(n_products=4, seed=1))
        b = generate_ecommerce_lake(LakeSpec(n_products=4, seed=2))
        assert a.review_texts != b.review_texts

    def test_sql_loads(self, lake):
        db = Database(meter=CostMeter())
        for statement in lake.sql_statements():
            db.execute(statement)
        assert db.execute("SELECT COUNT(*) FROM products").scalar() == 6
        assert db.execute("SELECT COUNT(*) FROM sales").scalar() == 24

    def test_every_fact_has_doc(self, lake):
        doc_ids = {doc_id for doc_id, _ in lake.review_texts}
        for fact in lake.satisfaction_facts:
            assert fact.doc_id in doc_ids

    def test_fact_text_contains_pct(self, lake):
        texts = dict(lake.review_texts)
        for fact in lake.satisfaction_facts:
            if fact.noisy:
                continue
            assert "%d%%" % abs(fact.change_percent) in texts[fact.doc_id]
            assert fact.product in texts[fact.doc_id]

    def test_noise_spec(self):
        noisy = generate_ecommerce_lake(
            LakeSpec(n_products=8, reviews_noise=0.5, seed=5)
        )
        flags = [f.noisy for f in noisy.satisfaction_facts]
        assert any(flags) and not all(flags)

    def test_qa_pairs_balanced(self, lake):
        pairs = lake.qa_pairs(per_kind=4)
        kinds = [p.kind for p in pairs]
        assert kinds.count(KIND_STRUCTURED_ENTITY) == 4
        assert kinds.count(KIND_STRUCTURED_AGG) == 4
        assert kinds.count(KIND_UNSTRUCTURED_FACT) == 4
        assert kinds.count(KIND_CROSS_MODAL) >= 1

    def test_structured_gold_matches_sql(self, lake):
        db = Database(meter=CostMeter())
        for statement in lake.sql_statements():
            db.execute(statement)
        pairs = [p for p in lake.qa_pairs(per_kind=4)
                 if p.kind == KIND_STRUCTURED_AGG
                 and "total sales of all products" in p.question]
        for pair in pairs:
            quarter = pair.metadata["quarter"]
            total = db.execute(
                "SELECT SUM(amount) FROM sales WHERE quarter = '%s'"
                % quarter
            ).scalar()
            assert total == pytest.approx(pair.answer_value, rel=1e-6)

    def test_retrieval_queries_gold(self, lake):
        queries = lake.retrieval_queries(n=8)
        assert queries
        for query in queries:
            assert query.relevant_docs
            assert query.n_entities in (1, 2)

    def test_bad_specs(self):
        with pytest.raises(BenchmarkError):
            LakeSpec(n_products=1)
        with pytest.raises(BenchmarkError):
            LakeSpec(n_quarters=9)
        with pytest.raises(BenchmarkError):
            LakeSpec(reviews_noise=1.5)


class TestHealthcareLake:
    def test_sql_loads(self, health_lake):
        db = Database(meter=CostMeter())
        for statement in health_lake.sql_statements():
            db.execute(statement)
        assert db.execute("SELECT COUNT(*) FROM drugs").scalar() == 4
        assert db.execute("SELECT COUNT(*) FROM trials").scalar() == 16

    def test_qa_pairs_kinds(self, health_lake):
        pairs = health_lake.qa_pairs(per_kind=3)
        kinds = {p.kind for p in pairs}
        assert KIND_STRUCTURED_ENTITY in kinds
        assert KIND_UNSTRUCTURED_FACT in kinds

    def test_too_many_drugs_is_a_benchmark_error(self):
        # The name pool holds 70 drugs: 10 stems by 7 suffixes.
        assert len(generate_healthcare_lake(HealthSpec(n_drugs=70)).drugs) \
            == 70
        with pytest.raises(BenchmarkError, match="at most 70 drugs"):
            generate_healthcare_lake(HealthSpec(n_drugs=96))

    def test_gold_records(self, health_lake):
        records = health_lake.gold_extraction_records()
        assert records and all("change_percent" in r for r in records)


class TestQAPairScoring:
    def test_numeric_match(self):
        pair = QAPair(question="q", kind="k", answer_value=20.0)
        assert pair.is_correct(Answer(text="It is 20%.", value=20.0))
        assert pair.is_correct(Answer(text="the answer is 20"))
        assert not pair.is_correct(Answer(text="maybe 30", value=30.0))

    def test_magnitude_match(self):
        pair = QAPair(question="q", kind="k", answer_value=20.0,
                      metadata={"magnitude": True})
        assert pair.is_correct(Answer(text="-20", value=-20.0))

    def test_abstain_never_correct(self):
        pair = QAPair(question="q", kind="k", answer_value=1.0)
        assert not pair.is_correct(Answer.abstain("x"))

    def test_text_match(self):
        pair = QAPair(question="q", kind="k", answer_text="Alpha Widget")
        assert pair.is_correct(Answer(text="the Alpha Widget led"))


class TestRunnerSystems:
    @pytest.fixture(scope="class")
    def small_lake(self):
        return generate_ecommerce_lake(LakeSpec(n_products=4, seed=9))

    def test_hybrid_beats_baselines_on_cross_modal(self, small_lake):
        pairs = small_lake.qa_pairs(per_kind=3)
        hybrid, _ = build_hybrid_system(small_lake)
        text2sql = build_text2sql_system(small_lake)
        hybrid_result = run_qa_suite(hybrid, pairs)
        sql_result = run_qa_suite(text2sql, pairs)
        assert hybrid_result.per_kind_accuracy.get(
            KIND_UNSTRUCTURED_FACT, 0.0
        ) > sql_result.per_kind_accuracy.get(KIND_UNSTRUCTURED_FACT, 0.0)

    def test_text2sql_good_on_structured(self, small_lake):
        pairs = [p for p in small_lake.qa_pairs(per_kind=4)
                 if p.kind == KIND_STRUCTURED_AGG]
        result = run_qa_suite(build_text2sql_system(small_lake), pairs)
        assert result.overall_accuracy >= 0.75

    def test_rag_answers_unstructured(self, small_lake):
        pairs = [p for p in small_lake.qa_pairs(per_kind=4)
                 if p.kind == KIND_UNSTRUCTURED_FACT]
        result = run_qa_suite(build_rag_system(small_lake), pairs)
        assert result.overall_accuracy >= 0.5

    def test_suite_result_row(self, small_lake):
        pairs = small_lake.qa_pairs(per_kind=2)
        result = run_qa_suite(build_text2sql_system(small_lake), pairs)
        row = result.row()
        assert row["system"] == "text2sql"
        assert "overall" in row and "abstain" in row


class TestReporting:
    def test_render_table(self):
        text = render_table(
            [{"a": 1, "b": 2.5}, {"a": 2, "b": None, "c": "x"}]
        )
        assert "| a" in text and "2.5" in text and "| x" in text.replace(
            "  ", " "
        )

    def test_render_table_empty(self):
        assert render_table([]) == "(no rows)"

    def test_render_table_title(self):
        text = render_table([{"a": 1}], title="T1")
        assert text.startswith("## T1")

    def test_render_series_sorted(self):
        text = render_series(
            [{"x": 2, "y": 1}, {"x": 1, "y": 5}], x="x", ys=["y"]
        )
        lines = text.splitlines()
        assert lines[2].startswith("| 1") and lines[3].startswith("| 2")

    def test_render_bars(self):
        from repro.bench.reporting import render_bars

        text = render_bars(
            [{"n": 10, "cost": 5.0}, {"n": 20, "cost": 10.0}],
            x="n", y="cost", width=10,
        )
        lines = text.splitlines()
        assert lines[1].endswith("5")
        assert lines[2].count("#") == 10  # peak fills the width
        assert lines[1].count("#") == 5

    def test_render_bars_empty(self):
        from repro.bench.reporting import render_bars

        assert render_bars([], x="n", y="c") == "(no points)"
