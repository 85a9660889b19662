"""Tests for UPDATE / DELETE / DROP and in-place row updates."""

import pytest

from repro.errors import SchemaError, SQLSyntaxError, StorageError
from repro.metering import CostMeter
from repro.storage.relational import Column, Database, TableSchema
from repro.storage.relational.table import Table
from repro.storage.types import DataType


@pytest.fixture
def db():
    database = Database(meter=CostMeter())
    database.execute(
        "CREATE TABLE items (id INT PRIMARY KEY, name TEXT, qty INT)"
    )
    database.execute(
        "INSERT INTO items VALUES (1, 'bolt', 10), (2, 'nut', 5), "
        "(3, 'washer', 0)"
    )
    return database


class TestUpdate:
    def test_update_with_where(self, db):
        rs = db.execute("UPDATE items SET qty = 99 WHERE name = 'nut'")
        assert rs.scalar() == 1
        assert db.execute(
            "SELECT qty FROM items WHERE id = 2"
        ).scalar() == 99

    def test_update_all_rows(self, db):
        rs = db.execute("UPDATE items SET qty = 0")
        assert rs.scalar() == 3

    def test_update_multiple_columns(self, db):
        db.execute("UPDATE items SET name = 'screw', qty = 7 WHERE id = 3")
        rs = db.execute("SELECT name, qty FROM items WHERE id = 3")
        assert rs.rows == [("screw", 7)]

    def test_update_pk_uniqueness_enforced(self, db):
        with pytest.raises(StorageError):
            db.execute("UPDATE items SET id = 1 WHERE id = 2")

    def test_update_pk_to_same_value_ok(self, db):
        rs = db.execute("UPDATE items SET id = 1 WHERE id = 1")
        assert rs.scalar() == 1

    def test_update_unknown_column(self, db):
        with pytest.raises(SchemaError):
            db.execute("UPDATE items SET bogus = 1")

    def test_update_maintains_index(self, db):
        db.create_index("items", "name")
        db.execute("UPDATE items SET name = 'rivet' WHERE id = 1")
        table = db.table("items")
        assert table.lookup("name", "rivet") == [(1, "rivet", 10)]
        assert table.lookup("name", "bolt") == []

    def test_update_type_coercion(self, db):
        db.execute("UPDATE items SET qty = '42' WHERE id = 1")
        assert db.execute(
            "SELECT qty FROM items WHERE id = 1"
        ).scalar() == 42

    def test_update_null_where_no_match(self, db):
        rs = db.execute("UPDATE items SET qty = 1 WHERE qty > 1000")
        assert rs.scalar() == 0


class TestDelete:
    def test_delete_with_where(self, db):
        rs = db.execute("DELETE FROM items WHERE qty = 0")
        assert rs.scalar() == 1
        assert db.execute("SELECT COUNT(*) FROM items").scalar() == 2

    def test_delete_all(self, db):
        rs = db.execute("DELETE FROM items")
        assert rs.scalar() == 3
        assert db.execute("SELECT COUNT(*) FROM items").scalar() == 0

    def test_delete_updates_pk_index(self, db):
        db.execute("DELETE FROM items WHERE id = 1")
        db.execute("INSERT INTO items VALUES (1, 'bolt2', 4)")
        assert db.execute(
            "SELECT name FROM items WHERE id = 1"
        ).scalar() == "bolt2"

    def test_delete_null_predicate_skips(self, db):
        db.execute("INSERT INTO items VALUES (4, NULL, NULL)")
        rs = db.execute("DELETE FROM items WHERE qty > 0")
        # NULL qty row survives (NULL predicate = no match).
        assert rs.scalar() == 2
        assert db.execute("SELECT COUNT(*) FROM items").scalar() == 2


class TestDrop:
    def test_drop_table(self, db):
        db.execute("DROP TABLE items")
        assert not db.has_table("items")

    def test_drop_missing(self, db):
        with pytest.raises(StorageError):
            db.execute("DROP TABLE ghost")


def versions(db):
    return db.version, db.schema_version, db.row_writes("items")


class TestVersions:
    def test_refused_writes_move_no_version(self, db):
        before = versions(db)
        for statement, error in (
            ("INSERT INTO items VALUES (1, 'dup', 0)", StorageError),
            ("CREATE TABLE items (id INT)", StorageError),
            ("DROP TABLE ghost", StorageError),
        ):
            with pytest.raises(error):
                db.execute(statement)
        # A write that matches no row changes nothing either.
        db.execute("DELETE FROM items WHERE qty > 100")
        assert versions(db) == before

    def test_ddl_moves_both_versions(self, db):
        version, schema_version, _ = versions(db)
        db.execute("CREATE TABLE extra (a INT)")
        db.execute("DROP TABLE extra")
        assert (db.version, db.schema_version) == (version + 2,
                                                   schema_version + 2)

    @pytest.mark.parametrize("statement", [
        "INSERT INTO items VALUES (4, 'pin', 1), (5)",
        "INSERT INTO items (id, name) VALUES (4, 'pin'), (5)",
        "UPDATE items SET id = 9",
    ])
    def test_a_write_that_fails_part_way_moves_the_versions(
            self, db, statement):
        version, schema_version, row_writes = versions(db)
        rows = list(db.table("items").rows())
        with pytest.raises((SchemaError, StorageError)):
            db.execute(statement)
        # Statements are not atomic: the first row stays written, so
        # the versions say the table changed.
        assert list(db.table("items").rows()) != rows
        assert versions(db) == (version + 1, schema_version,
                                row_writes + 1)


class TestParserErrors:
    def test_update_missing_set(self, db):
        with pytest.raises(SQLSyntaxError):
            db.execute("UPDATE items qty = 1")

    def test_delete_missing_from(self, db):
        with pytest.raises(SQLSyntaxError):
            db.execute("DELETE items")


class TestTableUpdateDirect:
    def make(self):
        schema = TableSchema(
            "t", [Column("k", DataType.INT, nullable=False),
                  Column("v", DataType.TEXT)], primary_key="k",
        )
        return Table(schema, meter=CostMeter())

    def test_update_row(self):
        table = self.make()
        rid = table.insert((1, "a"))
        table.update(rid, (1, "b"))
        assert table.get(rid) == (1, "b")

    def test_update_missing_row(self):
        with pytest.raises(StorageError):
            self.make().update(99, (1, "x"))

    def test_update_null_pk_rejected(self):
        table = self.make()
        rid = table.insert((1, "a"))
        with pytest.raises(SchemaError):
            table.update(rid, (None, "a"))

    def test_update_pk_move(self):
        table = self.make()
        rid = table.insert((1, "a"))
        table.update(rid, (2, "a"))
        assert table.lookup("k", 2) == [(2, "a")]
        assert table.lookup("k", 1) == []
