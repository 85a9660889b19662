"""Entity-keyed sharded document and text store facades.

Both facades partition by document id — the entity key of the
semi-structured and unstructured legs — using the same seeded router as
the relational facade, so one shard map covers the whole lake. Chunks
follow their parent document (chunk ids are ``"<doc_id>#<position>"``),
which keeps a document and everything derived from it on one shard.

Like :class:`~.relational.ShardedTable`, the facades reproduce the base
stores' charge patterns, iteration orders (sorted ids, ``(doc,
position)`` chunk order — never shard arrival order) and error strings
exactly, so sharded answers stay byte-identical to unsharded ones.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..errors import StorageError
from ..metering import CostMeter
from ..storage.document.store import DocumentStore, _check_jsonable, _is_scalar
from ..storage.document.jsonpath import select
from ..storage.textstore import Chunk, Chunker, TextStore
from .shardset import ShardSet, shard_of_chunk, shard_of_doc

#: Serving-layer store kinds these facades report writes/touches under.
KIND_DOCUMENT = "document"
KIND_TEXT = "text"


class ShardedDocumentStore(DocumentStore):
    """A :class:`DocumentStore` partitioned over per-shard children.

    Field indexes stay at the facade (equality lookups need the global
    id set); documents live in the children and every shard access runs
    under its ``shard:<i>`` resilience guard.
    """

    def __init__(self, shard_set: ShardSet,
                 meter: Optional[CostMeter] = None):
        super().__init__(meter=meter)
        self._shard_set = shard_set
        self._children = [
            DocumentStore(meter=self._meter)
            for _ in range(shard_set.n_shards)
        ]

    def _owner_of(self, doc_id: str) -> int:
        return shard_of_doc(self._shard_set.router, doc_id)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def put(self, doc_id: str, document: Any) -> None:
        if not doc_id:
            raise StorageError("document id cannot be empty")
        _check_jsonable(document)
        owner = self._owner_of(doc_id)
        child = self._children[owner]
        old = child._docs.get(doc_id)
        self._shard_set.guarded(
            owner, "put", lambda: child.put(doc_id, document)
        )
        if old is not None:
            self._unindex(doc_id, old)
        self._index(doc_id, child._docs[doc_id])
        self._shard_set.note_write(KIND_DOCUMENT, owner)
        self._notify_mutation("put")

    def delete(self, doc_id: str) -> None:
        owner = self._owner_of(doc_id)
        child = self._children[owner]
        document = child._docs.get(doc_id)
        if document is None:
            raise StorageError("no document %r" % doc_id)
        self._shard_set.guarded(owner, "delete",
                                lambda: child.delete(doc_id))
        self._unindex(doc_id, document)
        self._shard_set.note_write(KIND_DOCUMENT, owner)
        self._notify_mutation("delete")

    def create_field_index(self, path: str) -> None:
        if path in self._field_indexes:
            return
        index: Dict[Any, set] = {}
        for child in self._children:
            for doc_id, document in child._docs.items():
                for value in select(document, path):
                    if _is_scalar(value):
                        index.setdefault(value, set()).add(doc_id)
        self._field_indexes[path] = index

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, doc_id: str) -> Any:
        owner = self._owner_of(doc_id)
        self._shard_set.note_touch(KIND_DOCUMENT, [owner])
        return self._shard_set.guarded(
            owner, "get", lambda: self._children[owner].get(doc_id)
        )

    def ids(self) -> List[str]:
        self._shard_set.note_touch(KIND_DOCUMENT, None)
        merged: List[str] = []
        for index, child in enumerate(self._children):
            merged.extend(self._shard_set.guarded(
                index, "ids", lambda c=child: c.ids()
            ))
        return sorted(merged)

    def __len__(self) -> int:
        return sum(len(child) for child in self._children)

    def __contains__(self, doc_id: str) -> bool:
        owner = self._owner_of(doc_id)
        self._shard_set.note_touch(KIND_DOCUMENT, [owner])
        return doc_id in self._children[owner]._docs

    def scan(self) -> Iterator[Tuple[str, Any]]:
        self._shard_set.note_fanout(KIND_DOCUMENT, len(self._children))
        self._shard_set.note_touch(KIND_DOCUMENT, None)
        merged: List[Tuple[str, Any]] = []
        for index, child in enumerate(self._children):
            merged.extend(self._shard_set.guarded(
                index, "scan", lambda c=child: list(c.scan())
            ))
        merged.sort(key=lambda pair: pair[0])
        for pair in merged:
            yield pair

    def find_equal(self, path: str, value: Any) -> List[str]:
        index = self._field_indexes.get(path)
        if index is not None:
            # A future put into any shard could match: the cache
            # dependency is every shard, even though no shard is read.
            self._shard_set.note_touch(KIND_DOCUMENT, None)
            return sorted(index.get(value, ()))
        return super().find_equal(path, value)

    def dump_json(self) -> str:
        merged: Dict[str, Any] = {}
        for child in self._children:
            merged.update(child._docs)
        return json.dumps(merged, sort_keys=True, default=str)


class ShardedTextStore(TextStore):
    """A :class:`TextStore` partitioned over per-shard children.

    All children share the facade's chunker, so chunk ids (and hence
    chunk→shard ownership) are identical to the unsharded store's.
    """

    def __init__(self, shard_set: ShardSet,
                 chunker: Optional[Chunker] = None,
                 meter: Optional[CostMeter] = None):
        super().__init__(chunker=chunker, meter=meter)
        self._shard_set = shard_set
        self._children = [
            TextStore(chunker=self._chunker, meter=self._meter)
            for _ in range(shard_set.n_shards)
        ]

    def _owner_of(self, doc_id: str) -> int:
        return shard_of_doc(self._shard_set.router, doc_id)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def add(self, doc_id: str, text: str) -> List[Chunk]:
        if not doc_id:
            raise StorageError("document id cannot be empty")
        owner = self._owner_of(doc_id)
        child = self._children[owner]
        if doc_id in child._docs:
            self.remove(doc_id)
        chunks = self._shard_set.guarded(
            owner, "add", lambda: child.add(doc_id, text)
        )
        self._shard_set.note_write(KIND_TEXT, owner)
        self._notify_mutation("add")
        return chunks

    def remove(self, doc_id: str) -> None:
        owner = self._owner_of(doc_id)
        child = self._children[owner]
        if doc_id not in child._docs:
            raise StorageError("no text document %r" % doc_id)
        self._shard_set.guarded(owner, "remove",
                                lambda: child.remove(doc_id))
        self._shard_set.note_write(KIND_TEXT, owner)
        self._notify_mutation("remove")

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def document(self, doc_id: str) -> str:
        owner = self._owner_of(doc_id)
        self._shard_set.note_touch(KIND_TEXT, [owner])
        return self._shard_set.guarded(
            owner, "document",
            lambda: self._children[owner].document(doc_id),
        )

    def chunk(self, chunk_id: str) -> Chunk:
        owner = shard_of_chunk(self._shard_set.router, chunk_id)
        self._shard_set.note_touch(KIND_TEXT, [owner])
        return self._shard_set.guarded(
            owner, "chunk", lambda: self._children[owner].chunk(chunk_id)
        )

    def chunks(self) -> List[Chunk]:
        self._shard_set.note_fanout(KIND_TEXT, len(self._children))
        self._shard_set.note_touch(KIND_TEXT, None)
        merged: List[Chunk] = []
        for index, child in enumerate(self._children):
            merged.extend(self._shard_set.guarded(
                index, "chunks", lambda c=child: c.chunks()
            ))
        merged.sort(key=_chunk_order)
        return merged

    def chunks_of(self, doc_id: str) -> List[Chunk]:
        owner = self._owner_of(doc_id)
        child = self._children[owner]
        if doc_id not in child._doc_chunks:
            raise StorageError("no text document %r" % doc_id)
        self._shard_set.note_touch(KIND_TEXT, [owner])
        return self._shard_set.guarded(
            owner, "chunks_of", lambda: child.chunks_of(doc_id)
        )

    def doc_ids(self) -> List[str]:
        self._shard_set.note_touch(KIND_TEXT, None)
        merged: List[str] = []
        for index, child in enumerate(self._children):
            merged.extend(self._shard_set.guarded(
                index, "doc_ids", lambda c=child: c.doc_ids()
            ))
        return sorted(merged)

    def __len__(self) -> int:
        return sum(len(child) for child in self._children)

    @property
    def n_chunks(self) -> int:
        return sum(child.n_chunks for child in self._children)

    def dump_json(self) -> str:
        merged: Dict[str, str] = {}
        for child in self._children:
            merged.update(child._docs)
        return json.dumps(merged, sort_keys=True)


def _chunk_order(chunk: Chunk) -> Tuple[str, int]:
    # Canonical chunk key: (doc id, position) — the unsharded store's
    # iteration order, independent of which shard answered first.
    doc_id, _, position = chunk.chunk_id.rpartition("#")
    return doc_id, int(position)
