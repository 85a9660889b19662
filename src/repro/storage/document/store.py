"""Semi-structured document store (JSON-like records).

Documents are Python dicts/lists/scalars under a string id. The store
offers path-based filtering and projection plus field indexes — the
semi-structured leg of the heterogeneous lake (JSON logs, XML configs).
"""

from __future__ import annotations

import copy
import json
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ...errors import StorageError
from ...metering import CHUNKS_READ, CostMeter, GLOBAL_METER
from .jsonpath import select, select_one


class DocumentStore:
    """A keyed collection of JSON-like documents with path queries.

    Reads return deep copies, and the copy stays: on the benchmark
    lakes no ask reads a document, and a build copies ~210 of them in
    under 1 ms, so read-only documents would buy nothing.
    """

    def __init__(self, meter: Optional[CostMeter] = None):
        self._docs: Dict[str, Any] = {}
        self._field_indexes: Dict[str, Dict[Any, set]] = {}
        self._meter = meter if meter is not None else GLOBAL_METER
        self._mutation_listeners: List[Callable[[str], None]] = []

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def add_mutation_listener(self, listener: Callable[[str], None]) -> None:
        """Subscribe ``listener(op)`` to every write on this store.

        The serving layer's write-through cache invalidation hook;
        listeners must not write back into the store.
        """
        self._mutation_listeners.append(listener)

    def _notify_mutation(self, op: str) -> None:
        for listener in self._mutation_listeners:
            listener(op)

    def put(self, doc_id: str, document: Any) -> None:
        """Insert or replace a document (deep-copied on the way in)."""
        if not doc_id:
            raise StorageError("document id cannot be empty")
        _check_jsonable(document)
        if doc_id in self._docs:
            self._unindex(doc_id, self._docs[doc_id])
        stored = copy.deepcopy(document)
        self._docs[doc_id] = stored
        self._index(doc_id, stored)
        self._notify_mutation("put")

    def put_many(self, items: Iterable[Tuple[str, Any]]) -> int:
        """Insert many (id, document) pairs; returns count."""
        count = 0
        for doc_id, document in items:
            self.put(doc_id, document)
            count += 1
        return count

    def delete(self, doc_id: str) -> None:
        """Remove a document (StorageError when absent)."""
        document = self._docs.pop(doc_id, None)
        if document is None:
            raise StorageError("no document %r" % doc_id)
        self._unindex(doc_id, document)
        self._notify_mutation("delete")

    # ------------------------------------------------------------------
    # Field indexes
    # ------------------------------------------------------------------
    def create_field_index(self, path: str) -> None:
        """Index a scalar path for O(1) equality lookup."""
        if path in self._field_indexes:
            return
        index: Dict[Any, set] = {}
        for doc_id, document in self._docs.items():
            for value in select(document, path):
                if _is_scalar(value):
                    index.setdefault(value, set()).add(doc_id)
        self._field_indexes[path] = index

    def _index(self, doc_id: str, document: Any) -> None:
        for path, index in self._field_indexes.items():
            for value in select(document, path):
                if _is_scalar(value):
                    index.setdefault(value, set()).add(doc_id)

    def _unindex(self, doc_id: str, document: Any) -> None:
        for path, index in self._field_indexes.items():
            for value in select(document, path):
                if _is_scalar(value) and value in index:
                    index[value].discard(doc_id)
                    if not index[value]:
                        del index[value]

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, doc_id: str) -> Any:
        """Fetch one document by id (deep copy)."""
        try:
            self._meter.charge(CHUNKS_READ)
            return copy.deepcopy(self._docs[doc_id])
        except KeyError:
            raise StorageError("no document %r" % doc_id) from None

    def ids(self) -> List[str]:
        """All document ids, sorted."""
        return sorted(self._docs)

    def __len__(self) -> int:
        return len(self._docs)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._docs

    def scan(self) -> Iterator[Tuple[str, Any]]:
        """Yield (id, document) in id order, charging ``chunks_read``."""
        for doc_id in sorted(self._docs):
            self._meter.charge(CHUNKS_READ)
            yield doc_id, copy.deepcopy(self._docs[doc_id])

    def find_equal(self, path: str, value: Any) -> List[str]:
        """Ids of documents whose *path* equals *value*.

        Uses the field index when one exists, else scans.
        """
        index = self._field_indexes.get(path)
        if index is not None:
            return sorted(index.get(value, ()))
        hits = []
        for doc_id, document in self.scan():
            if value in select(document, path):
                hits.append(doc_id)
        return hits

    def find(self, predicate: Callable[[Any], bool]) -> List[str]:
        """Ids of documents satisfying an arbitrary predicate."""
        return [d for d, doc in self.scan() if predicate(doc)]

    def project(self, paths: Dict[str, str]) -> List[Dict[str, Any]]:
        """Project every document to {column: value-at-path} records.

        The bridge from semi-structured to relational: the result loads
        directly via ``Database.load_dicts``.
        """
        records = []
        for doc_id, document in self.scan():
            record = {"doc_id": doc_id}
            for column, path in paths.items():
                record[column] = select_one(document, path)
            records.append(record)
        return records

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def dump_json(self) -> str:
        """Serialize the whole store to a JSON string."""
        return json.dumps(self._docs, sort_keys=True, default=str)

    @classmethod
    def load_json(cls, text: str,
                  meter: Optional[CostMeter] = None) -> "DocumentStore":
        """Rebuild a store from :meth:`dump_json` output."""
        store = cls(meter=meter)
        data = json.loads(text)
        if not isinstance(data, dict):
            raise StorageError("expected a JSON object of id → document")
        for doc_id, document in data.items():
            store.put(doc_id, document)
        return store


def _is_scalar(value: Any) -> bool:
    return value is None or isinstance(value, (str, int, float, bool))


def _check_jsonable(document: Any, depth: int = 0) -> None:
    if depth > 32:
        raise StorageError("document nesting too deep")
    if _is_scalar(document):
        return
    if isinstance(document, list):
        for item in document:
            _check_jsonable(item, depth + 1)
        return
    if isinstance(document, dict):
        for key, value in document.items():
            if not isinstance(key, str):
                raise StorageError("document keys must be strings")
            _check_jsonable(value, depth + 1)
        return
    raise StorageError(
        "unsupported document value of type %s" % type(document).__name__
    )
