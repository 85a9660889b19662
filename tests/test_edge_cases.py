"""Assorted edge-case coverage across subsystems."""

import datetime as dt

import pytest

from repro.errors import ReproError, StorageError
from repro.metering import CostMeter
from repro.qa.state import load_pipeline
from repro.semql import SemanticOperators
from repro.slm import SLMConfig, SmallLanguageModel
from repro.storage.csvio import write_csv
from repro.storage.relational import Database
from repro.storage.relational.executor import ResultSet
from repro.text.patterns import extract_first_scalar


class TestScalarExtraction:
    @pytest.mark.parametrize("text,expected", [
        ("The answer is $1.2 million.", 1.2e6),
        ("$800,000 in revenue", 800000.0),
        ("rose 20%", 20.0),
        ("fell -30", -30.0),
        ("exactly 1,234 units", 1234.0),
        ("It is 12 percent", 12.0),
        ("no numbers at all", None),
        ("", None),
    ])
    def test_cases(self, text, expected):
        got = extract_first_scalar(text)
        if expected is None:
            assert got is None
        else:
            assert got == pytest.approx(expected)

    def test_first_wins(self):
        assert extract_first_scalar("5 then 9") == 5.0


class TestExecutorEdges:
    def make(self):
        db = Database(meter=CostMeter())
        db.execute("CREATE TABLE t (a INT, b TEXT)")
        db.execute(
            "INSERT INTO t VALUES (1, 'x'), (1, 'x'), (NULL, 'x'), "
            "(NULL, 'x'), (2, NULL)"
        )
        return db

    def test_distinct_dedups_nulls(self):
        db = self.make()
        rs = db.execute("SELECT DISTINCT a FROM t")
        assert sorted(rs.column("a"), key=lambda v: (v is None, v)) == \
            [1, 2, None]

    def test_order_by_nulls_first(self):
        db = self.make()
        rs = db.execute("SELECT a FROM t ORDER BY a")
        assert rs.column("a")[:2] == [None, None]

    def test_group_by_null_is_a_group(self):
        db = self.make()
        rs = db.execute("SELECT a, COUNT(*) AS n FROM t GROUP BY a")
        groups = dict(rs.rows)
        assert groups[None] == 2

    def test_like_special_chars(self):
        db = self.make()
        db.execute("INSERT INTO t VALUES (9, 'a.b(c)')")
        rs = db.execute("SELECT a FROM t WHERE b LIKE 'a.b(%'")
        assert rs.column("a") == [9]

    def test_avg_distinct(self):
        db = self.make()
        rs = db.execute("SELECT AVG(DISTINCT a) FROM t")
        assert rs.scalar() == pytest.approx(1.5)

    def test_min_max_distinct(self):
        db = self.make()
        assert db.execute("SELECT MIN(DISTINCT a) FROM t").scalar() == 1
        assert db.execute("SELECT MAX(DISTINCT a) FROM t").scalar() == 2


class TestCSVWriteEdges:
    def test_dates_and_bools_serialized(self):
        rs = ResultSet(["d", "flag"], [(dt.date(2024, 1, 2), True)])
        text = write_csv(rs)
        assert "2024-01-02" in text and "True" in text

    def test_quotes_escaped(self):
        rs = ResultSet(["t"], [('say "hi", ok',)])
        text = write_csv(rs)
        assert '"say ""hi"", ok"' in text


class TestSemOpsEdges:
    def make_ops(self):
        slm = SmallLanguageModel(SLMConfig(seed=0), meter=CostMeter())
        return SemanticOperators(slm)

    def test_filter_skips_all_null_rows(self):
        ops = self.make_ops()
        rs = ResultSet(["a"], [(None,), ("battery died",)])
        out = ops.sem_filter(rs, "battery problems", threshold=0.2)
        assert all(row[0] is not None for row in out.rows)

    def test_topk_k_larger_than_rows(self):
        ops = self.make_ops()
        rs = ResultSet(["a"], [("x y",)])
        assert len(ops.sem_topk(rs, "x", k=10)) == 1


class TestStateCorruption:
    def test_corrupt_manifest(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{broken")
        with pytest.raises(ReproError):
            load_pipeline(str(tmp_path))

    def test_wrong_version(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"version": 99}')
        with pytest.raises(ReproError):
            load_pipeline(str(tmp_path))

    @pytest.mark.parametrize("manifest", [
        '{"version": 1}',
        '{"version": 1, "slm_config": {"no_such_knob": 1},'
        ' "generated_tables": [], "entity_columns": {},'
        ' "synonyms": [], "joins": [], "display_columns": []}',
    ])
    def test_incomplete_manifest(self, tmp_path, manifest):
        (tmp_path / "manifest.json").write_text(manifest)
        with pytest.raises(ReproError, match="manifest"):
            load_pipeline(str(tmp_path))

    def test_missing_database_file(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            '{"version": 1, "slm_config": {"seed": 0}, "gazetteer": {},'
            ' "generated_tables": [], "entity_columns": {},'
            ' "synonyms": [], "joins": [], "display_columns": []}'
        )
        with pytest.raises((ReproError, OSError, StorageError)):
            load_pipeline(str(tmp_path))
