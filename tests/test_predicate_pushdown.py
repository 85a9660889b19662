"""Tests for predicate pushdown through joins."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PlanError
from repro.metering import CostMeter
from repro.storage.relational import Database
from repro.storage.relational.planner import Planner


@pytest.fixture
def db():
    database = Database(meter=CostMeter())
    database.execute(
        "CREATE TABLE p (pid INT PRIMARY KEY, name TEXT, mfr TEXT)"
    )
    database.execute(
        "CREATE TABLE s (sid INT PRIMARY KEY, pid INT, q TEXT, "
        "amt FLOAT)"
    )
    database.execute(
        "INSERT INTO p VALUES (1, 'A', 'acme'), (2, 'B', 'globex'), "
        "(3, 'C', 'acme')"
    )
    database.execute(
        "INSERT INTO s VALUES (1, 1, 'q1', 10.0), (2, 2, 'q2', 20.0), "
        "(3, 1, 'q2', 30.0), (4, 3, 'q1', 40.0)"
    )
    return database


class TestPushdownPlans:
    def test_single_table_conjuncts_pushed(self, db):
        plan = db.explain(
            "SELECT p.name FROM p JOIN s ON p.pid = s.pid "
            "WHERE s.q = 'q2' AND p.mfr = 'acme'"
        )
        join_pos = plan.index("HashJoin")
        # Both filters appear below the join line.
        assert plan.index("p.mfr = 'acme'", join_pos) > join_pos
        assert plan.index("s.q = 'q2'", join_pos) > join_pos

    def test_unqualified_column_attributed(self, db):
        plan = db.explain(
            "SELECT p.name FROM p JOIN s ON p.pid = s.pid "
            "WHERE mfr = 'acme'"
        )
        assert plan.index("Filter") > plan.index("HashJoin")

    def test_cross_table_conjunct_stays_above(self, db):
        plan = db.explain(
            "SELECT p.name FROM p JOIN s ON p.pid = s.pid "
            "WHERE p.mfr = s.q"
        )
        assert plan.index("Filter") < plan.index("HashJoin")

    def test_single_table_query_unaffected(self, db):
        plan = db.explain("SELECT name FROM p WHERE mfr = 'acme'")
        lines = plan.splitlines()
        assert lines[0].startswith("Project")
        assert lines[1].strip().startswith("Filter")


class TestExplainIsTheExecutedPlan:
    """plan/explain and execute share one preparation: the unknown-column
    gate, one planner over the same tables."""

    QUERY = ("SELECT name, amt FROM p JOIN s ON p.pid = s.pid "
             "WHERE mfr = 'acme' AND amt > 1")

    def test_join_explains_the_pushdown_execute_runs(self, db, monkeypatch):
        planned = []
        plan = Planner.plan

        def recording(planner, stmt):
            planned.append(plan(planner, stmt))
            return planned[-1]

        monkeypatch.setattr(Planner, "plan", recording)
        assert sorted(db.execute(self.QUERY).rows) == [
            ("A", 10.0), ("A", 30.0), ("C", 40.0)]
        executed = planned[-1].explain()
        explained = db.explain(self.QUERY)
        assert explained == executed
        lines = explained.splitlines()
        join = next(i for i, line in enumerate(lines) if "HashJoin" in line)
        filters = [i for i, line in enumerate(lines) if "Filter" in line]
        assert len(filters) == 2 and min(filters) > join

    def test_plan_raises_the_error_execute_raises(self, db):
        sql = "SELECT name FROM p WHERE nosuch = 1"
        with pytest.raises(PlanError) as executed:
            db.execute(sql)
        with pytest.raises(PlanError) as planned:
            db.plan(sql)
        assert str(planned.value) == str(executed.value)
        assert "unknown-column" in str(planned.value)


class TestPushdownResults:
    def test_inner_join_results_unchanged(self, db):
        rs = db.execute(
            "SELECT p.name, s.amt FROM p JOIN s ON p.pid = s.pid "
            "WHERE s.q = 'q2' AND p.mfr = 'acme' ORDER BY s.amt"
        )
        assert rs.rows == [("A", 30.0)]

    @given(q=st.sampled_from(["q1", "q2"]),
           mfr=st.sampled_from(["acme", "globex"]))
    @settings(max_examples=10, deadline=None)
    def test_pushdown_equivalent_to_post_filter(self, q, mfr):
        database = Database(meter=CostMeter())
        database.execute(
            "CREATE TABLE p (pid INT PRIMARY KEY, name TEXT, mfr TEXT)"
        )
        database.execute(
            "CREATE TABLE s (sid INT PRIMARY KEY, pid INT, q TEXT, "
            "amt FLOAT)"
        )
        database.execute(
            "INSERT INTO p VALUES (1, 'A', 'acme'), (2, 'B', 'globex')"
        )
        database.execute(
            "INSERT INTO s VALUES (1, 1, 'q1', 10.0), "
            "(2, 2, 'q2', 20.0), (3, 1, 'q2', 30.0)"
        )
        fast = database.execute(
            "SELECT p.name, s.amt FROM p JOIN s ON p.pid = s.pid "
            "WHERE s.q = '%s' AND p.mfr = '%s'" % (q, mfr)
        )
        oracle = [
            (pn, amt)
            for pid, pn, pm in [(1, "A", "acme"), (2, "B", "globex")]
            for sp, sq, amt in [(1, "q1", 10.0), (2, "q2", 20.0),
                                (1, "q2", 30.0)]
            if pid == sp and sq == q and pm == mfr
        ]
        assert sorted(fast.rows) == sorted(oracle)
