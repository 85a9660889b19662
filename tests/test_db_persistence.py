"""Tests for database/table JSON persistence."""

import datetime as dt

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StorageError
from repro.metering import CostMeter
from repro.storage.relational import (
    Database, database_from_json, database_to_json, table_from_dict,
    table_to_dict,
)


def make_db():
    db = Database(meter=CostMeter())
    db.execute(
        "CREATE TABLE t (id INT PRIMARY KEY, name TEXT, price FLOAT, "
        "active BOOL, created DATE)"
    )
    db.execute(
        "INSERT INTO t VALUES "
        "(1, 'alpha', 1.5, TRUE, '2024-01-02'), "
        "(2, NULL, NULL, FALSE, NULL)"
    )
    db.execute("CREATE TABLE empty (x INT)")
    return db


class TestDatabasePersistence:
    def test_roundtrip_preserves_rows(self):
        db = make_db()
        clone = database_from_json(database_to_json(db),
                                   meter=CostMeter())
        assert clone.table_names() == db.table_names()
        assert clone.table("t").rows() == db.table("t").rows()

    def test_roundtrip_preserves_types(self):
        clone = database_from_json(database_to_json(make_db()),
                                   meter=CostMeter())
        row = clone.table("t").lookup("id", 1)[0]
        assert isinstance(row[2], float)
        assert row[3] is True
        assert row[4] == dt.date(2024, 1, 2)

    def test_roundtrip_preserves_pk(self):
        clone = database_from_json(database_to_json(make_db()),
                                   meter=CostMeter())
        with pytest.raises(StorageError):
            clone.table("t").insert((1, "dup", None, None, None))

    def test_clone_queryable(self):
        clone = database_from_json(database_to_json(make_db()),
                                   meter=CostMeter())
        assert clone.execute(
            "SELECT COUNT(*) FROM t WHERE active = TRUE"
        ).scalar() == 1

    def test_empty_table_roundtrip(self):
        clone = database_from_json(database_to_json(make_db()),
                                   meter=CostMeter())
        assert len(clone.table("empty")) == 0

    def test_bad_json(self):
        with pytest.raises(StorageError):
            database_from_json("{nope")
        with pytest.raises(StorageError):
            database_from_json('{"version": 42}')

    def test_malformed_table(self):
        with pytest.raises(StorageError):
            table_from_dict({"name": "t", "columns": [
                {"name": "a", "dtype": "no-such-type"}
            ]})


class TestTableDictRoundtrip:
    @given(rows=st.lists(
        st.tuples(
            st.integers(-100, 100),
            st.one_of(st.none(), st.text(max_size=8)),
            st.one_of(st.none(), st.dates()),
        ),
        max_size=20,
    ))
    @settings(max_examples=30, deadline=None)
    def test_property_roundtrip(self, rows):
        db = Database(meter=CostMeter())
        db.execute("CREATE TABLE p (a INT, b TEXT, d DATE)")
        for row in rows:
            db.table("p").insert(row)
        payload = table_to_dict(db.table("p"))
        clone = table_from_dict(payload, meter=CostMeter())
        assert clone.rows() == db.table("p").rows()
