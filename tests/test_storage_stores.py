"""Tests for document store, jsonpath, text store and CSV I/O."""

import datetime as dt

import pytest
from hypothesis import given, strategies as st

from repro.errors import StorageError
from repro.metering import CHUNKS_READ, CostMeter
from repro.storage.csvio import (
    infer_column_type, infer_schema, read_csv, table_to_csv, write_csv,
)
from repro.storage.document import (
    DocumentStore, parse_path, select, select_one,
)
from repro.storage.textstore import TextStore
from repro.storage.types import DataType
from repro.text.chunker import Chunker, ChunkerConfig


class TestJsonPath:
    DOC = {
        "order": {
            "id": "ORD-1",
            "items": [
                {"sku": "A", "qty": 2},
                {"sku": "B", "qty": 1},
            ],
        },
        "tags": ["new", "priority"],
    }

    def test_nested_field(self):
        assert select(self.DOC, "order.id") == ["ORD-1"]

    def test_list_index(self):
        assert select(self.DOC, "order.items[0].sku") == ["A"]

    def test_list_wildcard(self):
        assert select(self.DOC, "order.items[*].qty") == [2, 1]

    def test_implicit_fanout(self):
        assert select(self.DOC, "order.items.sku") == ["A", "B"]

    def test_dict_wildcard(self):
        assert sorted(map(str, select({"a": {"x": 1, "y": 2}}, "a.*"))) == \
            ["1", "2"]

    def test_missing_path(self):
        assert select(self.DOC, "order.nope.deep") == []

    def test_select_one_default(self):
        assert select_one(self.DOC, "zzz", default=42) == 42

    def test_parse_path(self):
        assert parse_path("a[0].b[*]") == ["a", 0, "b", "[*]"]

    def test_bad_paths(self):
        with pytest.raises(StorageError):
            parse_path("")
        with pytest.raises(StorageError):
            parse_path("a..b")


class TestDocumentStore:
    def make(self):
        store = DocumentStore(meter=CostMeter())
        store.put("d1", {"type": "log", "level": "error", "code": 500})
        store.put("d2", {"type": "log", "level": "info", "code": 200})
        store.put("d3", {"type": "config", "level": "error"})
        return store

    def test_put_get_roundtrip(self):
        store = self.make()
        assert store.get("d1")["code"] == 500

    def test_version_moves_once_per_put_and_delete(self):
        store = self.make()
        assert store.version == 3
        store.put("d1", {"type": "log"})
        store.delete("d2")
        with pytest.raises(StorageError):
            store.delete("ghost")
        assert store.version == 5

    def test_get_returns_copy(self):
        store = self.make()
        doc = store.get("d1")
        doc["code"] = 999
        assert store.get("d1")["code"] == 500

    def test_put_copies_input(self):
        store = DocumentStore(meter=CostMeter())
        source = {"a": [1]}
        store.put("x", source)
        source["a"].append(2)
        assert store.get("x") == {"a": [1]}

    def test_missing_doc(self):
        with pytest.raises(StorageError):
            self.make().get("zzz")

    def test_delete(self):
        store = self.make()
        store.delete("d1")
        assert "d1" not in store and len(store) == 2
        with pytest.raises(StorageError):
            store.delete("d1")

    def test_find_equal_scan(self):
        store = self.make()
        assert store.find_equal("level", "error") == ["d1", "d3"]

    def test_find_equal_indexed(self):
        store = self.make()
        store.create_field_index("level")
        assert store.find_equal("level", "error") == ["d1", "d3"]

    def test_index_maintained_on_write(self):
        store = self.make()
        store.create_field_index("level")
        store.put("d4", {"level": "error"})
        store.delete("d1")
        assert store.find_equal("level", "error") == ["d3", "d4"]

    def test_replace_updates_index(self):
        store = self.make()
        store.create_field_index("level")
        store.put("d1", {"level": "info"})
        assert "d1" not in store.find_equal("level", "error")

    def test_find_predicate(self):
        store = self.make()
        hits = store.find(lambda d: d.get("code", 0) >= 500)
        assert hits == ["d1"]

    def test_project(self):
        store = self.make()
        records = store.project({"lvl": "level", "code": "code"})
        assert {"doc_id": "d3", "lvl": "error", "code": None} in records

    def test_rejects_bad_documents(self):
        store = DocumentStore(meter=CostMeter())
        with pytest.raises(StorageError):
            store.put("x", {1: "non-string-key"})
        with pytest.raises(StorageError):
            store.put("x", {"a": object()})
        with pytest.raises(StorageError):
            store.put("", {})

    def test_json_roundtrip(self):
        store = self.make()
        clone = DocumentStore.load_json(store.dump_json(), meter=CostMeter())
        assert clone.ids() == store.ids()
        assert clone.get("d2") == store.get("d2")

    def test_scan_charges_meter(self):
        meter = CostMeter()
        store = DocumentStore(meter=meter)
        store.put("a", {"x": 1})
        list(store.scan())
        assert meter.get(CHUNKS_READ) == 1


class TestTextStore:
    def make(self):
        cfg = ChunkerConfig(max_tokens=12, overlap_sentences=0)
        return TextStore(Chunker(cfg), meter=CostMeter())

    def test_add_and_chunks(self):
        store = self.make()
        chunks = store.add("r1", "Alpha sold well. Beta sold poorly. "
                                 "Gamma was flat. Delta grew fast.")
        assert len(chunks) >= 2
        assert store.n_chunks == len(chunks)

    def test_version_moves_once_per_add_and_remove(self):
        store = self.make()
        store.add("r1", "Some text here.")
        store.remove("r1")
        with pytest.raises(StorageError):
            store.remove("r1")
        assert store.version == 2
        # A replacing add removes the old document first.
        store.add("r2", "One text.")
        store.add("r2", "Another text.")
        assert store.version == 5

    def test_document_roundtrip(self):
        store = self.make()
        store.add("r1", "Some text here.")
        assert store.document("r1") == "Some text here."

    def test_chunk_lookup(self):
        store = self.make()
        chunks = store.add("r1", "One sentence.")
        assert store.chunk(chunks[0].chunk_id).text == "One sentence."

    def test_replace_document(self):
        store = self.make()
        store.add("r1", "Old text here.")
        store.add("r1", "New text entirely.")
        assert len(store) == 1
        assert all("New" in c.text for c in store.chunks_of("r1"))

    def test_remove(self):
        store = self.make()
        store.add("r1", "Text.")
        store.remove("r1")
        assert store.n_chunks == 0
        with pytest.raises(StorageError):
            store.remove("r1")

    def test_missing_lookups(self):
        store = self.make()
        with pytest.raises(StorageError):
            store.document("zz")
        with pytest.raises(StorageError):
            store.chunk("zz#0")
        with pytest.raises(StorageError):
            store.chunks_of("zz")

    def test_chunks_ordered(self):
        store = self.make()
        store.add("b", "B text.")
        store.add("a", "A text.")
        ids = [c.doc_id for c in store.chunks()]
        assert ids == sorted(ids)

    def test_add_many(self):
        store = self.make()
        n = store.add_many([("a", "One."), ("b", "Two.")])
        assert n == 2 and len(store) == 2


class TestCSV:
    def test_infer_types(self):
        assert infer_column_type(["1", "2"]) is DataType.INT
        assert infer_column_type(["1.5", "2"]) is DataType.FLOAT
        assert infer_column_type(["true", "false"]) is DataType.BOOL
        assert infer_column_type(["2024-01-01"]) is DataType.DATE
        assert infer_column_type(["abc"]) is DataType.TEXT
        assert infer_column_type(["", ""]) is DataType.TEXT

    def test_read_csv_infers_schema(self):
        table = read_csv("t", "id,name,price\n1,Alpha,9.5\n2,Beta,19.0\n")
        assert table.schema.column("id").dtype is DataType.INT
        assert table.schema.column("price").dtype is DataType.FLOAT
        assert len(table) == 2

    def test_read_csv_nulls(self):
        table = read_csv("t", "a,b\n1,\n,x\n")
        assert table.rows() == [(1, None), (None, "x")]

    def test_read_csv_dates(self):
        table = read_csv("t", "d\n2024-01-02\n")
        assert table.rows() == [(dt.date(2024, 1, 2),)]

    def test_header_sanitized(self):
        table = read_csv("t", "Product Name,2024 Sales\nA,5\n")
        names = table.schema.column_names()
        assert names == ["product_name", "c_2024_sales"]

    def test_ragged_row_rejected(self):
        with pytest.raises(StorageError):
            read_csv("t", "a,b\n1\n")

    def test_empty_rejected(self):
        with pytest.raises(StorageError):
            read_csv("t", "")

    def test_roundtrip(self):
        csv_text = "a,b\n1,x\n2,\n"
        table = read_csv("t", csv_text)
        assert table_to_csv(table) == csv_text

    def test_infer_schema_object(self):
        schema = infer_schema("t", ["x", "y"], [["1", "a"]])
        assert schema.column("x").dtype is DataType.INT
        assert schema.column("y").dtype is DataType.TEXT
