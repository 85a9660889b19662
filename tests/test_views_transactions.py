"""Tests for SQL views and snapshot transactions."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ExecutionError, PlanError, StorageError
from repro.metering import CostMeter
from repro.storage.relational import Database


@pytest.fixture
def db():
    database = Database(meter=CostMeter())
    database.execute(
        "CREATE TABLE sales (sid INT PRIMARY KEY, region TEXT, "
        "amount FLOAT)"
    )
    database.execute(
        "INSERT INTO sales VALUES (1, 'west', 100.0), "
        "(2, 'east', 200.0), (3, 'west', 50.0)"
    )
    return database


class TestViews:
    def test_create_and_query(self, db):
        db.execute(
            "CREATE VIEW west AS SELECT sid, amount FROM sales "
            "WHERE region = 'west'"
        )
        rs = db.execute("SELECT SUM(amount) FROM west")
        assert rs.scalar() == pytest.approx(150.0)

    def test_view_reflects_base_changes(self, db):
        db.execute(
            "CREATE VIEW west AS SELECT amount FROM sales "
            "WHERE region = 'west'"
        )
        db.execute("INSERT INTO sales VALUES (4, 'west', 25.0)")
        assert db.execute(
            "SELECT COUNT(*) FROM west"
        ).scalar() == 3

    def test_aggregate_view(self, db):
        db.execute(
            "CREATE VIEW totals AS SELECT region, SUM(amount) AS total "
            "FROM sales GROUP BY region"
        )
        rs = db.execute(
            "SELECT region FROM totals WHERE total > 120 ORDER BY region"
        )
        assert rs.column("region") == ["east", "west"]

    def test_view_on_view(self, db):
        db.execute("CREATE VIEW a AS SELECT region, amount FROM sales")
        db.execute(
            "CREATE VIEW b AS SELECT amount FROM a WHERE region = 'east'"
        )
        assert db.execute("SELECT SUM(amount) FROM b").scalar() == 200.0

    def test_view_join_with_table(self, db):
        db.execute("CREATE TABLE regions (region TEXT, manager TEXT)")
        db.execute(
            "INSERT INTO regions VALUES ('west', 'ann'), ('east', 'bo')"
        )
        db.execute(
            "CREATE VIEW totals AS SELECT region, SUM(amount) AS total "
            "FROM sales GROUP BY region"
        )
        rs = db.execute(
            "SELECT r.manager, t.total FROM regions r "
            "JOIN totals t ON r.region = t.region ORDER BY r.manager"
        )
        assert rs.rows == [("ann", 150.0), ("bo", 200.0)]

    def test_name_conflicts(self, db):
        db.execute("CREATE VIEW v AS SELECT sid FROM sales")
        with pytest.raises(StorageError):
            db.execute("CREATE VIEW v AS SELECT sid FROM sales")
        with pytest.raises(StorageError):
            db.execute("CREATE TABLE v (x INT)")
        with pytest.raises(StorageError):
            db.execute("CREATE VIEW sales AS SELECT sid FROM sales")

    def test_invalid_view_rejected_eagerly(self, db):
        with pytest.raises(PlanError):
            db.execute("CREATE VIEW bad AS SELECT nope FROM sales")

    def test_drop_view(self, db):
        db.execute("CREATE VIEW v AS SELECT sid FROM sales")
        db.execute("DROP VIEW v")
        with pytest.raises(ExecutionError):
            db.execute("SELECT * FROM v")
        with pytest.raises(StorageError):
            db.execute("DROP VIEW v")


class TestTransactions:
    def test_rollback_restores_rows(self, db):
        db.execute("BEGIN")
        db.execute("DELETE FROM sales")
        assert db.execute("SELECT COUNT(*) FROM sales").scalar() == 0
        db.execute("ROLLBACK")
        assert db.execute("SELECT COUNT(*) FROM sales").scalar() == 3

    def test_commit_keeps_changes(self, db):
        db.execute("BEGIN TRANSACTION")
        db.execute("INSERT INTO sales VALUES (9, 'north', 10.0)")
        db.execute("COMMIT")
        assert db.execute("SELECT COUNT(*) FROM sales").scalar() == 4
        db.execute("BEGIN")  # COMMIT closed the transaction
        db.execute("ROLLBACK")

    def test_rollback_restores_updates(self, db):
        db.execute("BEGIN")
        db.execute("UPDATE sales SET amount = 0")
        db.execute("ROLLBACK")
        assert db.execute(
            "SELECT SUM(amount) FROM sales"
        ).scalar() == pytest.approx(350.0)

    def test_rollback_restores_indexes(self, db):
        db.execute("BEGIN")
        db.execute("DELETE FROM sales WHERE sid = 1")
        db.execute("ROLLBACK")
        # PK index must know sid=1 again (insert duplicate fails).
        with pytest.raises(StorageError):
            db.execute("INSERT INTO sales VALUES (1, 'x', 1.0)")

    def test_rollback_restores_dropped_table(self, db):
        db.execute("BEGIN")
        db.execute("DROP TABLE sales")
        db.execute("ROLLBACK")
        assert db.has_table("sales")

    def test_rollback_restores_views(self, db):
        db.execute("CREATE VIEW v AS SELECT sid FROM sales")
        db.execute("BEGIN")
        db.execute("DROP VIEW v")
        db.execute("ROLLBACK")
        assert len(db.execute("SELECT * FROM v")) == 3

    def test_nested_begin_rejected(self, db):
        db.execute("BEGIN")
        with pytest.raises(StorageError):
            db.execute("BEGIN")
        db.execute("ROLLBACK")

    def test_stray_commit_rejected(self, db):
        with pytest.raises(StorageError):
            db.execute("COMMIT")
        with pytest.raises(StorageError):
            db.execute("ROLLBACK")

    @given(ops=st.lists(st.sampled_from([
        "INSERT INTO sales VALUES (100, 'z', 1.0)",
        "DELETE FROM sales WHERE region = 'west'",
        "UPDATE sales SET amount = amount + 1",
        "UPDATE sales SET region = 'north' WHERE sid = 2",
    ]), min_size=1, max_size=5, unique=True))
    @settings(max_examples=20, deadline=None)
    def test_rollback_is_always_identity(self, ops):
        database = Database(meter=CostMeter())
        database.execute(
            "CREATE TABLE sales (sid INT PRIMARY KEY, region TEXT, "
            "amount FLOAT)"
        )
        database.execute(
            "INSERT INTO sales VALUES (1, 'west', 100.0), "
            "(2, 'east', 200.0)"
        )
        before = database.table("sales").to_dicts()
        database.execute("BEGIN")
        for op in ops:
            try:
                database.execute(op)
            except StorageError:
                pass
        database.execute("ROLLBACK")
        assert database.table("sales").to_dicts() == before
