"""Tests for normalization, attribute extraction and table generation."""

import datetime as dt

import pytest

from repro.errors import ExtractionError
from repro.metering import TAGGING_CALLS, CostMeter
from repro.extraction import (
    ATTR_CHANGE_PERCENT, ATTR_DATE, ATTR_DIRECTION, ATTR_METRIC,
    ATTR_QUARTER, ATTR_SUBJECT, ATTR_YEAR, AttributeExtractor,
    PROVENANCE_COLUMN, TableGenerator, detect_direction, facts_to_rows,
    infer_fact_schema, infer_value_type, normalize_date, normalize_value,
    score_generated_cells, unify_types,
)
from repro.extraction.attributes import ExtractedFact
from repro.slm import SLMConfig, SmallLanguageModel
from repro.storage.relational import Database
from repro.storage.types import DataType
from repro.text.ner import TYPE_PRODUCT, Gazetteer
from repro.text.patterns import KIND_MONEY, KIND_PERCENT, KIND_QUARTER


def make_slm(**config):
    gaz = Gazetteer()
    gaz.add(TYPE_PRODUCT, ["Alpha Widget", "Beta Gadget"])
    return SmallLanguageModel(SLMConfig(**config), gazetteer=gaz,
                              meter=CostMeter())


def _cells(generated):
    """Non-NULL cells of a generated table."""
    return sum(value is not None
               for row in generated.table.rows() for value in row)


class TestNormalize:
    def test_normalize_date_iso(self):
        assert normalize_date("2024-03-15") == dt.date(2024, 3, 15)

    def test_normalize_date_text(self):
        assert normalize_date("March 15, 2024") == dt.date(2024, 3, 15)
        assert normalize_date("Mar 1 2024") == dt.date(2024, 3, 1)

    def test_normalize_date_failure(self):
        assert normalize_date("not a date") is None
        assert normalize_date("February 31, 2024") is None

    def test_normalize_percent_value(self):
        value, dtype = normalize_value(KIND_PERCENT, "20%")
        assert value == 20.0 and dtype is DataType.FLOAT

    def test_normalize_money_value(self):
        value, dtype = normalize_value(KIND_MONEY, "$1.5 million")
        assert value == 1.5e6 and dtype is DataType.FLOAT

    def test_normalize_quarter_value(self):
        value, dtype = normalize_value(KIND_QUARTER, "second quarter of 2024")
        assert value == "Q2 2024" and dtype is DataType.TEXT

    def test_detect_direction(self):
        assert detect_direction("sales rose sharply") == "up"
        assert detect_direction("revenue declined") == "down"
        assert detect_direction("weather was mild") is None


class TestAttributeExtraction:
    def extract_one(self, sentence):
        return AttributeExtractor(make_slm()).extract_sentence(sentence)

    def test_paper_example(self):
        fact = self.extract_one("Q2 sales increased 20%")
        assert fact.get(ATTR_QUARTER) == "Q2"
        assert fact.get(ATTR_METRIC) == "sales"
        assert fact.get(ATTR_CHANGE_PERCENT) == 20.0
        assert fact.get(ATTR_DIRECTION) == "up"

    def test_subject_entity(self):
        fact = self.extract_one(
            "Alpha Widget sales increased 20% in Q2 2024"
        )
        assert fact.get(ATTR_SUBJECT) == "alpha widget"
        assert fact.get(ATTR_YEAR) == 2024

    def test_negative_change_for_decline(self):
        fact = self.extract_one("Beta Gadget sales decreased 15% in Q3")
        assert fact.get(ATTR_CHANGE_PERCENT) == -15.0
        assert fact.get(ATTR_DIRECTION) == "down"

    def test_date_extraction(self):
        fact = self.extract_one(
            "Alpha Widget revenue was reported on 2024-03-15"
        )
        assert fact.get(ATTR_DATE) == dt.date(2024, 3, 15)

    def test_empty_for_unrelated_text(self):
        fact = self.extract_one("The weather was mild this spring")
        assert not fact

    def test_extract_multi_sentence(self):
        facts = AttributeExtractor(make_slm()).extract(
            "Alpha Widget sales rose 10% in Q1. "
            "The weather was mild. "
            "Beta Gadget sales fell 5% in Q2."
        )
        assert len(facts) == 2
        assert facts[0].get(ATTR_SUBJECT) == "alpha widget"
        assert facts[1].get(ATTR_CHANGE_PERCENT) == -5.0

    def test_provenance_sentence_kept(self):
        facts = AttributeExtractor(make_slm()).extract(
            "Alpha Widget sales rose 10% in Q1."
        )
        assert "Alpha Widget" in facts[0].source_sentence


class TestSchemaInference:
    def facts(self):
        return [
            ExtractedFact({"subject": "a", "change_percent": 10.0}),
            ExtractedFact({"subject": "b", "change_percent": -5,
                           "quarter": "Q2"}),
            ExtractedFact({"subject": "c", "year": 2024}),
        ]

    def test_infer_value_type(self):
        assert infer_value_type(True) is DataType.BOOL
        assert infer_value_type(1) is DataType.INT
        assert infer_value_type(1.5) is DataType.FLOAT
        assert infer_value_type(dt.date.today()) is DataType.DATE
        assert infer_value_type("x") is DataType.TEXT

    def test_unify_types(self):
        assert unify_types([DataType.INT, DataType.FLOAT]) is DataType.FLOAT
        assert unify_types([DataType.INT, DataType.TEXT]) is DataType.TEXT
        assert unify_types([DataType.INT]) is DataType.INT
        assert unify_types([]) is DataType.TEXT

    def test_schema_ordered_by_frequency(self):
        schema = infer_fact_schema("t", self.facts())
        assert schema.column_names()[0] == "subject"

    def test_mixed_numeric_widened(self):
        schema = infer_fact_schema("t", self.facts())
        assert schema.column("change_percent").dtype is DataType.FLOAT

    def test_min_support_drops_rare(self):
        schema = infer_fact_schema("t", self.facts(), min_column_support=2)
        assert "year" not in schema.column_names()
        assert "quarter" not in schema.column_names()

    def test_no_facts_rejected(self):
        with pytest.raises(ExtractionError):
            infer_fact_schema("t", [])

    def test_unsupportable_threshold(self):
        with pytest.raises(ExtractionError):
            infer_fact_schema("t", self.facts(), min_column_support=10)

    def test_facts_to_rows_nulls(self):
        schema = infer_fact_schema("t", self.facts())
        rows = facts_to_rows(self.facts(), schema)
        assert len(rows) == 3
        pos = schema.index_of("quarter")
        assert rows[0][pos] is None and rows[1][pos] == "Q2"

    def test_facts_to_rows_int_widening(self):
        schema = infer_fact_schema("t", self.facts())
        rows = facts_to_rows(self.facts(), schema)
        pos = schema.index_of("change_percent")
        assert rows[1][pos] == -5.0 and isinstance(rows[1][pos], float)


REPORTS = [
    ("r1", "Alpha Widget sales increased 20% in Q2 2024."),
    ("r2", "Beta Gadget sales decreased 10% in Q2 2024."),
    ("r3", "Alpha Widget revenue rose 5% in Q3 2024."),
]


class TestTableGenerator:
    def test_generate_basic(self):
        generated = TableGenerator(make_slm()).generate("reports", REPORTS)
        assert len(generated.table) == 3
        names = generated.table.schema.column_names()
        assert "subject" in names and "change_percent" in names
        assert PROVENANCE_COLUMN in names

    def test_generated_rows_queryable(self):
        db = Database(meter=CostMeter())
        TableGenerator(make_slm()).generate_into(db, "reports", REPORTS)
        rs = db.execute(
            "SELECT subject FROM reports WHERE change_percent > 15"
        )
        assert rs.column("subject") == ["alpha widget"]

    def test_generate_into_replaces(self):
        db = Database(meter=CostMeter())
        gen = TableGenerator(make_slm())
        gen.generate_into(db, "reports", REPORTS)
        gen.generate_into(db, "reports", REPORTS[:1])
        assert db.execute("SELECT COUNT(*) FROM reports").scalar() == 1

    def test_no_facts_raises(self):
        with pytest.raises(ExtractionError):
            TableGenerator(make_slm()).generate(
                "t", [("d", "Nothing relevant here at all")]
            )

    def test_without_provenance(self):
        generated = TableGenerator(
            make_slm(), include_provenance=False
        ).generate("t", REPORTS)
        assert PROVENANCE_COLUMN not in generated.table.schema.column_names()

    def test_entity_dropout_reduces_extraction(self):
        full = TableGenerator(make_slm()).generate("t", REPORTS)
        lossy_slm = make_slm(entity_dropout=0.7, seed=5)
        try:
            lossy = TableGenerator(lossy_slm).generate("t", REPORTS)
            lossy_cells = _cells(lossy)
        except ExtractionError:
            lossy_cells = 0
        assert lossy_cells < _cells(full)


class TestFactReuse:
    """TableGenerator keeps each document's facts between generations."""

    NEW = ("r0", "Beta Gadget revenue fell 8% in Q4 2024. Stock ran low.")

    def test_only_new_or_changed_documents_are_extracted(self):
        slm = make_slm()
        gen = TableGenerator(slm)
        gen.generate("reports", REPORTS)
        changed = ("r2", "Beta Gadget sales increased 40% in Q2 2024.")
        documents = [self.NEW, REPORTS[0], changed, REPORTS[2]]
        with slm.meter.measure() as work:
            reused = gen.generate("reports", documents)
        # One tagging call per sentence of the new and the changed
        # document; r1 and r3 cost nothing.
        assert work[TAGGING_CALLS] == 3
        fresh = TableGenerator(make_slm()).generate("reports", documents)
        assert reused.table.schema == fresh.table.schema
        assert list(reused.table.rows()) == list(fresh.table.rows())
        assert reused.doc_ids == ["r0", "r1", "r2", "r3"]
        assert [row[-1] for row in reused.table.rows()] == reused.doc_ids

    def test_absent_document_leaves_nothing_behind(self):
        slm = make_slm()
        gen = TableGenerator(slm)
        gen.generate("reports", REPORTS)
        gen.generate("reports", REPORTS[:1])
        with slm.meter.measure() as work:
            gen.generate("reports", REPORTS[:2])
        assert work[TAGGING_CALLS] == 1  # r2 was dropped, so re-read

    def test_tables_do_not_share_kept_facts(self):
        slm = make_slm()
        gen = TableGenerator(slm)
        gen.generate("reports", REPORTS)
        with slm.meter.measure() as work:
            gen.generate("other", REPORTS)
        assert work[TAGGING_CALLS] == len(REPORTS)

    def test_forget_re_extracts_everything(self):
        slm = make_slm()
        gen = TableGenerator(slm)
        gen.generate("reports", REPORTS)
        with slm.meter.measure() as work:
            gen.generate("reports", REPORTS)
        assert TAGGING_CALLS not in work
        gen.forget()
        with slm.meter.measure() as work:
            gen.generate("reports", REPORTS)
        assert work[TAGGING_CALLS] == len(REPORTS)

    def test_failed_generation_raises_again_without_re_extracting(self):
        slm = make_slm()
        gen = TableGenerator(slm)
        empty = [("d", "Nothing relevant here at all")]
        with pytest.raises(ExtractionError):
            gen.generate("t", empty)
        with slm.meter.measure() as work:
            with pytest.raises(ExtractionError):
                gen.generate("t", empty)
        assert TAGGING_CALLS not in work


class TestTableReuse:
    """Unchanged facts keep the assembled table and the installed one."""

    FACTLESS = ("r9", "The loading dock was repainted last weekend.")
    NEW = TestFactReuse.NEW

    def _same_as_fresh(self, generated, documents):
        fresh = TableGenerator(make_slm()).generate("reports", documents)
        assert generated.table.schema == fresh.table.schema
        assert list(generated.table.rows()) == list(fresh.table.rows())
        assert generated.doc_ids == fresh.doc_ids

    def test_equal_facts_return_the_assembled_table(self):
        gen = TableGenerator(make_slm())
        first = gen.generate("reports", REPORTS)
        documents = REPORTS + [self.FACTLESS]
        again = gen.generate("reports", documents)
        assert again.table is first.table
        assert again.doc_ids == ["r1", "r2", "r3", "r9"]
        self._same_as_fresh(again, documents)

    def test_any_change_in_facts_assembles_a_new_table(self):
        cases = {
            "one more fact": REPORTS + [self.NEW],
            "one fact fewer": REPORTS[:2],
            "same facts, other order": REPORTS[::-1],
            # Equal facts under another document id: provenance moved.
            "same facts, other document": [("rX", REPORTS[0][1])]
            + REPORTS[1:],
        }
        for documents in cases.values():
            gen = TableGenerator(make_slm())
            first = gen.generate("reports", REPORTS)
            changed = gen.generate("reports", documents)
            assert changed.table is not first.table
            self._same_as_fresh(changed, documents)

    def test_tables_are_kept_per_name(self):
        gen = TableGenerator(make_slm())
        assert (gen.generate("reports", REPORTS).table
                is not gen.generate("other", REPORTS).table)

    def test_forget_forces_re_assembly(self):
        gen = TableGenerator(make_slm())
        db = Database()
        first = gen.generate_into(db, "reports", REPORTS)
        gen.forget()
        mutations = []
        db.add_mutation_listener(mutations.append)
        again = gen.generate_into(db, "reports", REPORTS)
        assert again.table is not first.table
        assert mutations == ["drop_table", "create_table"]
        self._same_as_fresh(again, REPORTS)

    def test_generate_into_leaves_an_up_to_date_table_alone(self):
        gen = TableGenerator(make_slm())
        db = Database()
        gen.generate_into(db, "reports", REPORTS)
        installed = db.table("reports")
        mutations = []
        db.add_mutation_listener(mutations.append)
        gen.generate_into(db, "reports", REPORTS + [self.FACTLESS])
        assert mutations == [] and db.table("reports") is installed
        # New facts: dropped, created and filled as before.
        documents = REPORTS + [self.FACTLESS, self.NEW]
        generated = gen.generate_into(db, "reports", documents)
        assert mutations == ["drop_table", "create_table"]
        assert db.table("reports") is not installed
        assert (list(db.table("reports").rows())
                == list(generated.table.rows()))
        self._same_as_fresh(generated, documents)

    def test_generate_into_fills_a_table_it_did_not_install(self):
        # Same facts, but the database's table is not the one this
        # generator filled: another database, or dropped and re-created
        # behind its back.
        gen = TableGenerator(make_slm())
        gen.generate("reports", REPORTS)  # assembled, never installed
        db, other = Database(), Database()
        gen.generate_into(db, "reports", REPORTS)
        gen.generate_into(other, "reports", REPORTS)
        assert len(other.table("reports")) == len(db.table("reports")) > 0
        db.drop_table("reports")
        db.execute("CREATE TABLE reports (subject TEXT)")
        generated = gen.generate_into(db, "reports", REPORTS)
        assert (list(db.table("reports").rows())
                == list(generated.table.rows()))


class TestCellScoring:
    def test_perfect_match(self):
        records = [{"subject": "a", "change_percent": 20.0}]
        scores = score_generated_cells(records, records)
        assert scores == {"precision": 1.0, "recall": 1.0, "f1": 1.0}

    def test_numeric_canonicalization(self):
        gen = [{"x": 20.0}]
        gold = [{"x": 20}]
        assert score_generated_cells(gen, gold)["f1"] == 1.0

    def test_case_insensitive_text(self):
        gen = [{"s": "Alpha Widget"}]
        gold = [{"s": "alpha widget"}]
        assert score_generated_cells(gen, gold)["f1"] == 1.0

    def test_partial_match(self):
        gen = [{"a": 1, "b": 2}]
        gold = [{"a": 1, "b": 3}]
        scores = score_generated_cells(gen, gold)
        assert scores["precision"] == 0.5 and scores["recall"] == 0.5

    def test_missing_record_hurts_recall(self):
        gen = [{"a": 1}]
        gold = [{"a": 1}, {"a": 2}]
        scores = score_generated_cells(gen, gold)
        assert scores["recall"] == 0.5 and scores["precision"] == 1.0

    def test_provenance_ignored(self):
        gen = [{"a": 1, PROVENANCE_COLUMN: "d9"}]
        gold = [{"a": 1}]
        assert score_generated_cells(gen, gold)["f1"] == 1.0

    def test_empty_inputs(self):
        assert score_generated_cells([], [])["f1"] == 0.0
