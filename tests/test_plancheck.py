"""Tests for the static query-plan checker
(repro.storage.relational.plancheck).

Each diagnostic code gets a direct case; gating behaviour is tested
through :class:`Database`, and a fuzz sweep reuses the SQL grammar from
``test_sql_roundtrip_fuzz`` — with a misspelled column drawn now and
then — to show the gate blocks exactly the statements the full checker
finds an unknown column in, and nothing the executor would accept.
"""

import random
import re

import pytest

from repro.errors import PlanError
from repro.storage.relational import Database
from repro.storage.relational.plancheck import ERROR, WARNING, check_select
from repro.storage.relational.sql_parser import parse
from tests.test_sql_roundtrip_fuzz import (
    COLUMNS, SEED, _seed_database, _select as _grammar_select,
)

#: Every column name of the fuzz tables.
_NAMES = sorted({name for cols in COLUMNS.values() for name, _ in cols})
_COLUMN_WORD = re.compile(r"\b(%s)\b" % "|".join(_NAMES))
#: Where each clause the misspeller may pick starts, and what ends it.
_CLAUSES = (
    (r"^SELECT (DISTINCT )?", r" FROM "),
    (r" WHERE ", r" (GROUP BY|ORDER BY|LIMIT) |$"),
    (r" ORDER BY ", r" (DESC|LIMIT)\b|$"),
)


def _select(rng):
    """A fuzz-grammar SELECT; about one in four has one column of its
    select list, WHERE, ORDER BY or HAVING misspelled."""
    sql = _grammar_select(rng)
    if rng.random() >= 0.25:
        return sql
    clauses = []  # the column words of each clause that has some
    for start, end in _CLAUSES:
        opened = re.search(start, sql)
        if opened is not None:
            closed = re.compile(end).search(sql, opened.end())
            words = list(_COLUMN_WORD.finditer(
                sql, opened.end(), closed.start()))
            if words:
                clauses.append(words)
    having = sql.find(" HAVING (")
    if having >= 0 and rng.random() < 1 / (len(clauses) + 1):
        # HAVING's columns sit inside its aggregate, which the checker
        # leaves to the aggregate's select-list twin: a misspelled bare
        # column takes the aggregate's place.
        return sql[:having] + re.sub(r"\w+\([^)]*\)",
                                     rng.choice(_NAMES) + "x",
                                     sql[having:], count=1)
    if not clauses:
        return sql
    word = rng.choice(rng.choice(clauses))
    return sql[:word.start()] + word.group() + "x" + sql[word.end():]


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE products (pid INT PRIMARY KEY, name TEXT, "
        "price FLOAT, stock INT)"
    )
    database.execute(
        "CREATE TABLE orders (oid INT PRIMARY KEY, pid INT, qty INT, "
        "name TEXT)"
    )
    database.execute(
        "INSERT INTO products VALUES (1, 'bolt', 0.5, 100), "
        "(2, 'nut', 0.2, 50)"
    )
    database.execute("INSERT INTO orders VALUES (10, 1, 3, 'first')")
    return database


def codes(diags, severity=None):
    """Diagnostic codes, optionally filtered by severity."""
    return [d.code for d in diags
            if severity is None or d.severity == severity]


class TestDiagnostics:
    def test_clean_query_has_no_diagnostics(self, db):
        assert db.analyze(
            "SELECT name, price FROM products WHERE price > 0.1") == []

    def test_unknown_table(self, db):
        diags = db.analyze("SELECT x FROM nowhere")
        assert "unknown-table" in codes(diags, ERROR)

    def test_unknown_column(self, db):
        diags = db.analyze("SELECT nope FROM products")
        assert codes(diags, ERROR) == ["unknown-column"]
        assert "tables in scope" in diags[0].message

    def test_unknown_column_in_where(self, db):
        diags = db.analyze("SELECT name FROM products WHERE ghost = 1")
        assert "unknown-column" in codes(diags, ERROR)

    def test_type_mismatch_comparison(self, db):
        diags = db.analyze(
            "SELECT name FROM products WHERE price > 'abc'")
        assert "type-mismatch" in codes(diags, ERROR)

    def test_type_mismatch_in_list(self, db):
        diags = db.analyze(
            "SELECT name FROM products WHERE name IN (1, 2)")
        assert "type-mismatch" in codes(diags, ERROR)

    def test_matching_types_clean(self, db):
        assert db.analyze(
            "SELECT name FROM products "
            "WHERE name = 'bolt' AND stock IN (1, 2)") == []

    def test_unsatisfiable_bounds(self, db):
        diags = db.analyze(
            "SELECT name FROM products WHERE stock > 5 AND stock < 3")
        assert "unsatisfiable-predicate" in codes(diags, ERROR)
        assert "can never hold" in diags[0].message

    def test_unsatisfiable_equality_conflict(self, db):
        diags = db.analyze(
            "SELECT name FROM products WHERE stock = 1 AND stock = 2")
        assert "unsatisfiable-predicate" in codes(diags, ERROR)

    def test_unsatisfiable_eq_vs_neq(self, db):
        diags = db.analyze(
            "SELECT name FROM products WHERE stock = 1 AND stock != 1")
        assert "unsatisfiable-predicate" in codes(diags, ERROR)

    def test_unsatisfiable_eq_outside_bounds(self, db):
        diags = db.analyze(
            "SELECT name FROM products WHERE stock = 1 AND stock > 5")
        assert "unsatisfiable-predicate" in codes(diags, ERROR)

    def test_unsatisfiable_between(self, db):
        diags = db.analyze(
            "SELECT name FROM products "
            "WHERE stock BETWEEN 10 AND 20 AND stock < 5")
        assert "unsatisfiable-predicate" in codes(diags, ERROR)

    def test_flipped_literal_comparison_normalized(self, db):
        diags = db.analyze(
            "SELECT name FROM products WHERE 5 < stock AND stock < 3")
        assert "unsatisfiable-predicate" in codes(diags, ERROR)

    def test_satisfiable_or_not_flagged(self, db):
        # OR disjuncts are not conjoined bounds; x > 5 OR x < 3 is fine.
        assert db.analyze(
            "SELECT name FROM products "
            "WHERE stock > 5 OR stock < 3") == []

    def test_tight_but_satisfiable_bounds_clean(self, db):
        assert db.analyze(
            "SELECT name FROM products "
            "WHERE stock >= 5 AND stock <= 5") == []

    def test_ambiguous_column_is_warning(self, db):
        # "name" exists in both products and orders.
        diags = db.analyze(
            "SELECT name FROM products p "
            "JOIN orders o ON p.pid = o.pid")
        assert "ambiguous-column" in codes(diags, WARNING)
        assert codes(diags, ERROR) == []

    def test_unused_join_is_warning(self, db):
        diags = db.analyze(
            "SELECT p.name FROM products p "
            "JOIN orders o ON p.pid = o.pid")
        assert "unused-join" in codes(diags, WARNING)

    def test_join_used_in_projection_clean(self, db):
        assert db.analyze(
            "SELECT p.name, o.qty FROM products p "
            "JOIN orders o ON p.pid = o.pid") == []

    def test_sum_over_text_is_warning(self, db):
        diags = db.analyze("SELECT SUM(name) FROM products")
        assert codes(diags, WARNING) == ["type-mismatch"]
        assert "SUM()" in diags[0].message

    def test_sum_over_numeric_clean(self, db):
        assert db.analyze("SELECT SUM(price) FROM products") == []

    def test_errors_sort_before_warnings(self, db):
        diags = db.analyze(
            "SELECT p.nope FROM products p "
            "JOIN orders o ON p.pid = o.pid")
        severities = [d.severity for d in diags]
        assert severities == sorted(severities, key=lambda s: s != ERROR)

    def test_render_shape(self, db):
        diag = db.analyze("SELECT nope FROM products")[0]
        assert diag.render().startswith("error: [unknown-column]")


class TestOutputScope:
    def test_having_sees_output_aliases(self, db):
        assert db.analyze(
            "SELECT name, SUM(qty) AS total FROM orders "
            "GROUP BY name HAVING total > 1") == []

    def test_having_rejects_non_output_non_group_columns(self, db):
        diags = db.analyze(
            "SELECT name, SUM(qty) AS total FROM orders "
            "GROUP BY name HAVING pid > 1")
        assert "unknown-column" in codes(diags, ERROR)
        assert "HAVING" in diags[0].message

    def test_having_aggregate_args_not_base_checked(self, db):
        # COUNT(o.qty) in HAVING is rewritten to the precomputed value;
        # its argument is never evaluated against post-group rows.
        assert db.analyze(
            "SELECT o.name, COUNT(o.qty) AS n FROM orders o "
            "GROUP BY o.name HAVING COUNT(o.qty) >= 1") == []

    def test_order_by_sees_output_aliases(self, db):
        assert db.analyze(
            "SELECT name AS label FROM products ORDER BY label") == []

    def test_order_by_base_column_in_plain_select(self, db):
        assert db.analyze(
            "SELECT name FROM products ORDER BY price") == []

    def test_order_by_unknown_in_aggregated_select(self, db):
        diags = db.analyze(
            "SELECT name, COUNT(*) AS n FROM products "
            "GROUP BY name ORDER BY price")
        assert "unknown-column" in codes(diags, ERROR)


class TestGating:
    def test_unknown_column_rejected_statically(self, db):
        with pytest.raises(PlanError) as exc:
            db.execute("SELECT nope FROM products")
        assert "unknown-column" in str(exc.value)

    def test_default_mode_executes_unsatisfiable(self, db):
        # Contradictory-but-valid predicates still run (empty result):
        # rejecting them would change the semantics of generated SQL.
        rs = db.execute(
            "SELECT name FROM products WHERE stock > 5 AND stock < 3")
        assert rs.rows == []

    def test_default_mode_executes_type_mismatch_free_query(self, db):
        assert db.execute("SELECT COUNT(*) FROM products").scalar() == 2

    def test_analyze_rejects_non_select(self, db):
        with pytest.raises(PlanError):
            db.analyze("DELETE FROM products")

    def test_analyze_never_raises_for_semantic_problems(self, db):
        diags = db.analyze("SELECT nope FROM nowhere WHERE 1 = 'a'")
        assert all(isinstance(d.code, str) for d in diags)

    def test_analyze_sees_views(self, db):
        db.execute(
            "CREATE VIEW cheap AS SELECT name, price FROM products "
            "WHERE price < 0.4")
        assert db.analyze("SELECT name FROM cheap") == []
        diags = db.analyze("SELECT stock FROM cheap")
        assert "unknown-column" in codes(diags, ERROR)


class TestCheckSelectDirect:
    def test_callable_with_schema_callback(self, db):
        stmt = parse("SELECT nope FROM products")
        diags = check_select(stmt, lambda name: db.table(name).schema)
        assert codes(diags, ERROR) == ["unknown-column"]

    def test_missing_schema_reports_unknown_table(self):
        stmt = parse("SELECT x FROM ghost")
        diags = check_select(stmt, lambda name: None)
        assert "unknown-table" in codes(diags, ERROR)


class TestFuzzedGrammar:
    # Error codes the fuzz grammar can legitimately trigger: it freely
    # conjoins random comparisons, so contradictory intervals occur,
    # and it misspells a column now and then.
    ALLOWED_ERRORS = {"unsatisfiable-predicate", "unknown-column"}

    def test_generated_selects_analyze_and_execute(self):
        rng = random.Random(SEED + 7)
        db = _seed_database(rng)
        blocked = 0
        for _ in range(150):
            sql = _select(rng)
            diags = db.analyze(sql)
            unexpected = [d for d in diags
                          if d.severity == ERROR
                          and d.code not in self.ALLOWED_ERRORS]
            assert not unexpected, "%r -> %s" % (
                sql, [d.render() for d in unexpected])
            unknown = [d.render() for d in diags
                       if d.code == "unknown-column"]
            # The gate blocks exactly what the full checker finds an
            # unknown column in, with its findings as the message;
            # everything else runs, execution the source of truth.
            if unknown:
                with pytest.raises(PlanError) as exc:
                    db.execute(sql)
                assert str(exc.value) == "; ".join(unknown), sql
                blocked += 1
            else:
                db.execute(sql)
        assert blocked >= 20
