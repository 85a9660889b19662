"""Tests for types, schema, table and indexes."""

import datetime as dt

import pytest
from hypothesis import given, strategies as st

from repro.errors import SchemaError, StorageError
from repro.metering import CostMeter, ROWS_SCANNED
from repro.storage.relational.index import HashIndex, SortedIndex, make_index
from repro.storage.relational.schema import Column, TableSchema
from repro.storage.relational.table import Table
from repro.storage.types import DataType, coerce, compatible, sort_key


class TestTypes:
    def test_infer(self):
        assert DataType.infer(True) is DataType.BOOL
        assert DataType.infer(3) is DataType.INT
        assert DataType.infer(3.5) is DataType.FLOAT
        assert DataType.infer("x") is DataType.TEXT
        assert DataType.infer(dt.date(2024, 1, 1)) is DataType.DATE

    def test_infer_rejects_unknown(self):
        with pytest.raises(SchemaError):
            DataType.infer([1])

    def test_coerce_null_passthrough(self):
        assert coerce(None, DataType.INT) is None

    def test_coerce_int(self):
        assert coerce("1,234", DataType.INT) == 1234
        assert coerce(3.0, DataType.INT) == 3

    def test_coerce_int_rejects_fraction(self):
        with pytest.raises(SchemaError):
            coerce(3.5, DataType.INT)

    def test_coerce_float(self):
        assert coerce("20%", DataType.FLOAT) == 20.0
        assert coerce(3, DataType.FLOAT) == 3.0

    def test_coerce_bool(self):
        assert coerce("yes", DataType.BOOL) is True
        assert coerce("0", DataType.BOOL) is False

    def test_coerce_bool_rejects_garbage(self):
        with pytest.raises(SchemaError):
            coerce("maybe", DataType.BOOL)

    def test_coerce_date(self):
        assert coerce("2024-03-15", DataType.DATE) == dt.date(2024, 3, 15)

    def test_coerce_date_rejects_garbage(self):
        with pytest.raises(SchemaError):
            coerce("not-a-date", DataType.DATE)

    def test_compatible(self):
        assert compatible(None, DataType.INT)
        assert compatible(1, DataType.INT)
        assert not compatible(True, DataType.INT)
        assert compatible(1, DataType.FLOAT)
        assert not compatible("1", DataType.INT)

    def test_sort_key_total_order(self):
        values = [None, True, False, 3, 1.5, "b", "a", dt.date(2020, 1, 1)]
        keys = sorted(values, key=sort_key)
        assert keys[0] is None  # NULLs first


class TestSchema:
    def make(self):
        return TableSchema(
            "sales",
            [Column("id", DataType.INT, nullable=False),
             Column("product", DataType.TEXT),
             Column("amount", DataType.FLOAT)],
            primary_key="id",
        )

    def test_column_lookup(self):
        s = self.make()
        assert s.index_of("product") == 1
        assert s.column("amount").dtype is DataType.FLOAT

    def test_case_insensitive(self):
        s = self.make()
        assert s.index_of("PRODUCT") == 1

    def test_unknown_column(self):
        with pytest.raises(SchemaError):
            self.make().index_of("nope")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a", DataType.INT),
                              Column("a", DataType.TEXT)])

    def test_empty_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [])

    def test_bad_identifier(self):
        with pytest.raises(SchemaError):
            TableSchema("1bad", [Column("a", DataType.INT)])
        with pytest.raises(SchemaError):
            Column("has space", DataType.INT)

    def test_bad_primary_key(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a", DataType.INT)], primary_key="zz")

    def test_validate_row(self):
        s = self.make()
        row = s.validate_row((1, "x", 2.5))
        assert row == (1, "x", 2.5)

    def test_validate_rejects_arity(self):
        with pytest.raises(SchemaError):
            self.make().validate_row((1, "x"))

    def test_validate_rejects_type(self):
        with pytest.raises(SchemaError):
            self.make().validate_row((1, 2, 3.0))

    def test_validate_rejects_null_in_not_null(self):
        with pytest.raises(SchemaError):
            self.make().validate_row((None, "x", 1.0))

    def test_coerce_row(self):
        s = self.make()
        assert s.coerce_row(("3", "x", "4.5")) == (3, "x", 4.5)

    def test_row_from_dict(self):
        s = self.make()
        assert s.row_from_dict({"id": 1, "amount": 2.0}) == (1, None, 2.0)

    def test_row_from_dict_unknown_key(self):
        with pytest.raises(SchemaError):
            self.make().row_from_dict({"id": 1, "bogus": 2})


class TestIndexes:
    def test_hash_basic(self):
        idx = HashIndex("c")
        idx.insert("x", 1)
        idx.insert("x", 2)
        idx.insert("y", 3)
        assert idx.lookup("x") == [1, 2]
        assert idx.lookup("zzz") == []
        assert len(idx) == 3

    def test_hash_remove(self):
        idx = HashIndex("c")
        idx.insert("x", 1)
        idx.remove("x", 1)
        assert idx.lookup("x") == []
        idx.remove("x", 99)  # silently ignored

    def test_sorted_range(self):
        idx = SortedIndex("c")
        for i, v in enumerate([5, 1, 3, 9, 7]):
            idx.insert(v, i)
        assert idx.range(3, 7) == [2, 0, 4]
        assert idx.range(low=8) == [3]
        assert idx.range(high=1) == [1]
        assert idx.range() == [1, 2, 0, 4, 3]

    def test_sorted_exclusive_bounds(self):
        idx = SortedIndex("c")
        for i, v in enumerate([1, 2, 3]):
            idx.insert(v, i)
        assert idx.range(1, 3, include_low=False, include_high=False) == [1]

    def test_sorted_ignores_null(self):
        idx = SortedIndex("c")
        idx.insert(None, 0)
        assert len(idx) == 0

    def test_sorted_remove(self):
        idx = SortedIndex("c")
        idx.insert(4, 0)
        idx.remove(4, 0)
        assert len(idx) == 0

    def test_make_index(self):
        assert isinstance(make_index("hash", "c"), HashIndex)
        assert isinstance(make_index("sorted", "c"), SortedIndex)
        with pytest.raises(StorageError):
            make_index("btree", "c")

    @given(st.lists(st.integers(-50, 50), max_size=40))
    def test_sorted_range_matches_filter(self, values):
        idx = SortedIndex("c")
        for i, v in enumerate(values):
            idx.insert(v, i)
        got = set(idx.range(-10, 10))
        want = {i for i, v in enumerate(values) if -10 <= v <= 10}
        assert got == want


class TestTable:
    def make(self):
        schema = TableSchema(
            "t",
            [Column("id", DataType.INT, nullable=False),
             Column("name", DataType.TEXT)],
            primary_key="id",
        )
        return Table(schema, meter=CostMeter())

    def test_insert_and_get(self):
        t = self.make()
        rid = t.insert((1, "a"))
        assert t.get(rid) == (1, "a")

    def test_pk_uniqueness(self):
        t = self.make()
        t.insert((1, "a"))
        with pytest.raises(StorageError):
            t.insert((1, "b"))

    def test_pk_not_null(self):
        t = self.make()
        with pytest.raises(SchemaError):
            t.insert((None, "a"))

    def test_delete_updates_indexes(self):
        t = self.make()
        rid = t.insert((1, "a"))
        t.delete(rid)
        assert t.lookup("id", 1) == []
        with pytest.raises(StorageError):
            t.delete(rid)

    def test_insert_coerce(self):
        t = self.make()
        t.insert(("5", "x"), coerce=True)
        assert t.lookup("id", 5) == [(5, "x")]

    def test_insert_dict(self):
        t = self.make()
        t.insert_dict({"id": 2, "name": "b"})
        assert t.lookup("id", 2) == [(2, "b")]

    def test_secondary_index_backfill(self):
        t = self.make()
        t.insert((1, "a"))
        t.insert((2, "a"))
        t.create_index("name")
        assert sorted(t.lookup("name", "a")) == [(1, "a"), (2, "a")]

    def test_scan_charges_meter(self):
        meter = CostMeter()
        schema = TableSchema("t", [Column("a", DataType.INT)])
        t = Table(schema, meter=meter)
        for row in [(1,), (2,), (3,)]:
            t.insert(row)
        _ = t.rows()
        assert meter.get(ROWS_SCANNED) == 3

    def test_lookup_without_index_scans(self):
        schema = TableSchema("t", [Column("a", DataType.INT)])
        t = Table(schema, meter=CostMeter())
        t.insert((7,))
        assert t.lookup("a", 7) == [(7,)]

    def test_column_values(self):
        t = self.make()
        t.insert((1, "a"))
        t.insert((2, "b"))
        assert t.column_values("name") == ["a", "b"]

    def test_to_dicts(self):
        t = self.make()
        t.insert((1, "a"))
        assert t.to_dicts() == [{"id": 1, "name": "a"}]

    def test_len_and_repr(self):
        t = self.make()
        t.insert((1, "a"))
        assert len(t) == 1
        assert "t" in repr(t)
