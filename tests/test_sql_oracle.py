"""Differential testing: the SQL engine vs a naive Python oracle.

Hypothesis generates random tables and queries in the engine's dialect
(the grammar in ``repro.storage.relational.sql_parser``); the engine's
results must match a straightforward in-Python evaluation. This guards the
planner/executor against silent wrong-result bugs (index-scan pruning,
join order, NULL semantics, aggregate edge cases). For joins stdlib
``sqlite3`` answers the same statement as a second oracle.
"""

import math
import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ExecutionError
from repro.metering import CostMeter
from repro.storage.relational import Database
from repro.storage.relational.expressions import _cmp_values

TEXT_VALUES = ["red", "blue", "green", None]

rows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=-20, max_value=20),
        st.sampled_from(TEXT_VALUES),
        st.one_of(st.none(),
                  st.floats(min_value=-100, max_value=100,
                            allow_nan=False, width=32)),
    ),
    min_size=0, max_size=25,
)

comparison_strategy = st.tuples(
    st.sampled_from(["<", "<=", "=", ">=", ">", "!="]),
    st.integers(min_value=-15, max_value=15),
)


def make_db(rows):
    db = Database(meter=CostMeter())
    db.execute("CREATE TABLE t (a INT, b TEXT, c FLOAT)")
    for a, b, c in rows:
        db.table("t").insert((a, b, c))
    return db


def _cmp(op, x, y):
    if x is None or y is None:
        return False
    return {
        "<": x < y, "<=": x <= y, "=": x == y,
        ">=": x >= y, ">": x > y, "!=": x != y,
    }[op]


class TestFilterOracle:
    @given(rows=rows_strategy, comparison=comparison_strategy)
    @settings(max_examples=60, deadline=None)
    def test_where_on_int(self, rows, comparison):
        op, literal = comparison
        db = make_db(rows)
        got = db.execute(
            "SELECT a FROM t WHERE a %s %d ORDER BY a" % (op, literal)
        ).column("a")
        want = sorted(a for a, _, _ in rows if _cmp(op, a, literal))
        assert got == want

    @given(rows=rows_strategy,
           color=st.sampled_from(["red", "blue", "green"]))
    @settings(max_examples=40, deadline=None)
    def test_where_on_text_with_index(self, rows, color):
        db = make_db(rows)
        db.create_index("t", "b")
        got = sorted(db.execute(
            "SELECT a FROM t WHERE b = '%s'" % color
        ).column("a"))
        want = sorted(a for a, b, _ in rows if b == color)
        assert got == want

    @given(rows=rows_strategy, comparison=comparison_strategy)
    @settings(max_examples=40, deadline=None)
    def test_null_never_matches(self, rows, comparison):
        op, literal = comparison
        db = make_db(rows)
        got = db.execute(
            "SELECT a FROM t WHERE c %s %d" % (op, literal)
        ).column("a")
        # No row with NULL c may pass a comparison predicate.
        assert got == [a for a, _, c in rows if _cmp(op, c, literal)]


# LIKE patterns with what each means, written without a pattern language.
LIKE_ORACLE = {
    "r%": lambda s: s.lower().startswith("r"),
    "%E%": lambda s: "e" in s.lower(),
    "_ed": lambda s: len(s) == 3 and s.lower().endswith("ed"),
    "blue": lambda s: s.lower() == "blue",
    "%": lambda s: True,
}


class TestPredicateShapeOracle:
    @given(rows=rows_strategy,
           color=st.sampled_from(["red", "blue", "green"]),
           number=st.integers(min_value=-20, max_value=20))
    @settings(max_examples=60, deadline=None)
    def test_lowered_text_and_number_conjunction(self, rows, color, number):
        # The shape synthesized questions filter by; the text is stored
        # in mixed case so LOWER() has work to do.
        db = make_db([(a, b and (b.upper() if a % 2 else b.title()), c)
                      for a, b, c in rows])
        got = db.execute(
            "SELECT a, c FROM t WHERE LOWER(b) = '%s' AND a = %d"
            % (color, number)
        ).rows
        assert got == [(a, c) for a, b, c in rows
                       if b == color and a == number]

    @given(rows=rows_strategy, pattern=st.sampled_from(sorted(LIKE_ORACLE)))
    @settings(max_examples=60, deadline=None)
    def test_like(self, rows, pattern):
        db = make_db(rows)
        got = db.execute("SELECT a FROM t WHERE b LIKE '%s'"
                         % pattern).column("a")
        matches = LIKE_ORACLE[pattern]
        assert got == [a for a, b, _ in rows
                       if b is not None and matches(b)]

    @given(rows=rows_strategy)
    @settings(max_examples=60, deadline=None)
    def test_mixed_type_equality_raises_like_cmp_values(self, rows):
        db = make_db(rows)
        # (text column, number) takes the general comparison; (number
        # column, text literal) the bound text-equality shape.
        for sql, values, literal in (
            ("SELECT a FROM t WHERE b = 3", [b for _, b, _ in rows], 3),
            ("SELECT a FROM t WHERE a = 'red'", [a for a, _, _ in rows],
             "red"),
            # AND skips its right side only when the left is FALSE.
            ("SELECT a FROM t WHERE LOWER(b) = 'red' AND c = 'red'",
             [c for _, b, c in rows if b in (None, "red")], "red"),
        ):
            offending = [v for v in values if v is not None]
            if not offending:
                assert db.execute(sql).rows == []
                continue
            with pytest.raises(ExecutionError) as want:
                _cmp_values(offending[0], literal)
            with pytest.raises(ExecutionError) as got:
                db.execute(sql)
            assert str(got.value) == str(want.value)


class TestAggregateOracle:
    @given(rows=rows_strategy)
    @settings(max_examples=60, deadline=None)
    def test_global_aggregates(self, rows):
        db = make_db(rows)
        rs = db.execute(
            "SELECT COUNT(*) AS n, SUM(a) AS s, MIN(a) AS lo, "
            "MAX(a) AS hi, AVG(a) AS mean FROM t"
        )
        record = rs.to_dicts()[0]
        ints = [a for a, _, _ in rows]
        assert record["n"] == len(rows)
        if ints:
            assert record["s"] == pytest.approx(sum(ints))
            assert record["lo"] == min(ints)
            assert record["hi"] == max(ints)
            assert record["mean"] == pytest.approx(
                sum(ints) / len(ints)
            )
        else:
            assert record["s"] is None and record["mean"] is None

    @given(rows=rows_strategy)
    @settings(max_examples=60, deadline=None)
    def test_group_by_counts(self, rows):
        db = make_db(rows)
        rs = db.execute(
            "SELECT b, COUNT(*) AS n FROM t GROUP BY b"
        )
        got = {row[0]: row[1] for row in rs.rows}
        want = {}
        for _, b, _ in rows:
            want[b] = want.get(b, 0) + 1
        assert got == want

    @given(rows=rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_sum_skips_nulls(self, rows):
        db = make_db(rows)
        got = db.execute("SELECT SUM(c) FROM t").scalar()
        values = [c for _, _, c in rows if c is not None]
        if values:
            assert got == pytest.approx(sum(values), rel=1e-5)
        else:
            assert got is None

    @given(rows=rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_count_distinct(self, rows):
        db = make_db(rows)
        got = db.execute("SELECT COUNT(DISTINCT b) FROM t").scalar()
        assert got == len({b for _, b, _ in rows if b is not None})


class TestOrderLimitOracle:
    @given(rows=rows_strategy,
           limit=st.integers(min_value=0, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_order_limit(self, rows, limit):
        db = make_db(rows)
        got = db.execute(
            "SELECT a FROM t ORDER BY a LIMIT %d" % limit
        ).column("a")
        want = sorted(a for a, _, _ in rows)[:limit]
        assert got == want

    @given(rows=rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_order_desc_reverses(self, rows):
        db = make_db(rows)
        asc = db.execute("SELECT a FROM t ORDER BY a").column("a")
        desc = db.execute("SELECT a FROM t ORDER BY a DESC").column("a")
        assert desc == list(reversed(asc))

    @given(rows=rows_strategy, descending=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_order_by_non_projected_column(self, rows, descending):
        db = make_db(rows)
        got = db.execute("SELECT b FROM t ORDER BY a%s"
                         % (" DESC" if descending else "")).column("b")
        # Both sorts are stable over insertion order.
        ordered = sorted(rows, key=lambda row: row[0], reverse=descending)
        assert got == [b for _, b, _ in ordered]
        got = db.execute("SELECT a FROM t ORDER BY b, a").column("a")
        ordered = sorted(rows, key=lambda row: (row[1] is not None,
                                                row[1] or "", row[0]))
        assert got == [a for a, _, _ in ordered]

# Join sides small enough to be empty often, keyed on a narrow nullable
# range so matches, fan-out and NULL keys all occur.
join_rows_strategy = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
        st.sampled_from(TEXT_VALUES),
        st.one_of(st.none(), st.integers(min_value=-5, max_value=5)),
    ),
    min_size=0, max_size=8,
)

JOIN_CONDITIONS = {
    "l.a = r.a": lambda l, r: _cmp("=", l[0], r[0]),
    "l.a = r.a AND l.b = r.b":
        lambda l, r: _cmp("=", l[0], r[0]) and _cmp("=", l[1], r[1]),
    "l.a = r.a AND l.c < r.c":
        lambda l, r: _cmp("=", l[0], r[0]) and _cmp("<", l[2], r[2]),
    "l.a < r.a": lambda l, r: _cmp("<", l[0], r[0]),
    "l.c >= r.a AND l.b != r.b":
        lambda l, r: _cmp(">=", l[2], r[0]) and _cmp("!=", l[1], r[1]),
}


def _null_first(row):
    return tuple((v is not None, v if v is not None else 0) for v in row)


class TestJoinOracle:
    @given(left=join_rows_strategy, right=join_rows_strategy,
           kind=st.sampled_from(["JOIN", "INNER JOIN"]),
           condition=st.sampled_from(sorted(JOIN_CONDITIONS)))
    @settings(max_examples=150, deadline=None)
    def test_joins_with_empty_and_null_keyed_sides(self, left, right, kind,
                                                   condition):
        db = Database(meter=CostMeter())
        lite = sqlite3.connect(":memory:")
        for name, rows in (("l", left), ("r", right)):
            db.execute("CREATE TABLE %s (a INT, b TEXT, c INT)" % name)
            lite.execute("CREATE TABLE %s (a INT, b TEXT, c INT)" % name)
            for row in rows:
                db.table(name).insert(row)
            lite.executemany("INSERT INTO %s VALUES (?, ?, ?)" % name, rows)
        matches = JOIN_CONDITIONS[condition]
        want = []
        for l in left:
            want += [l + r for r in right if matches(l, r)]
        statements = {
            "SELECT l.a, l.b, l.c, r.a, r.b, r.c FROM l %s r ON %s":
                sorted(want, key=_null_first),
            "SELECT * FROM l %s r ON %s": sorted(want, key=_null_first),
            "SELECT COUNT(*), COUNT(r.b), SUM(r.c) FROM l %s r ON %s": [(
                len(want), sum(1 for row in want if row[4] is not None),
                sum((row[5] for row in want if row[5] is not None), 0.0)
                if any(row[5] is not None for row in want) else None,
            )],
            "SELECT l.a, l.b, l.c FROM l %s r ON %s WHERE r.c >= 0":
                sorted((row[:3] for row in want if _cmp(">=", row[5], 0)),
                       key=_null_first),
        }
        for template, expected in statements.items():
            sql = template % (kind, condition)
            got = sorted(db.execute(sql).rows, key=_null_first)
            assert got == expected, sql
            assert sorted(lite.execute(sql).fetchall(),
                          key=_null_first) == expected, sql
        lite.close()

    @given(left=rows_strategy, right=rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_inner_equi_join(self, left, right):
        db = Database(meter=CostMeter())
        db.execute("CREATE TABLE l (a INT, b TEXT, c FLOAT)")
        db.execute("CREATE TABLE r (a INT, b TEXT, c FLOAT)")
        for row in left:
            db.table("l").insert(row)
        for row in right:
            db.table("r").insert(row)
        rs = db.execute(
            "SELECT l.a, r.a FROM l JOIN r ON l.a = r.a"
        )
        got = sorted(rs.rows)
        want = sorted(
            (la, ra)
            for la, _, _ in left for ra, _, _ in right if la == ra
        )
        assert got == want

class TestUpdateDeleteOracle:
    @given(rows=rows_strategy, comparison=comparison_strategy,
           new_value=st.integers(min_value=-30, max_value=30))
    @settings(max_examples=40, deadline=None)
    def test_update_matches_oracle(self, rows, comparison, new_value):
        op, literal = comparison
        db = make_db(rows)
        db.execute(
            "UPDATE t SET a = %d WHERE a %s %d" % (new_value, op, literal)
        )
        got = sorted(db.execute("SELECT a FROM t").column("a"))
        want = sorted(
            new_value if _cmp(op, a, literal) else a for a, _, _ in rows
        )
        assert got == want

    @given(rows=rows_strategy, comparison=comparison_strategy)
    @settings(max_examples=40, deadline=None)
    def test_delete_matches_oracle(self, rows, comparison):
        op, literal = comparison
        db = make_db(rows)
        db.execute("DELETE FROM t WHERE a %s %d" % (op, literal))
        got = sorted(db.execute("SELECT a FROM t").column("a"))
        want = sorted(a for a, _, _ in rows if not _cmp(op, a, literal))
        assert got == want
