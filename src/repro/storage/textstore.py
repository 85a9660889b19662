"""Unstructured text store: raw documents plus their chunks.

The unstructured leg of the heterogeneous lake (clinical notes,
customer reviews, sales reports). Documents are chunked on ingest; the
chunks are what the graph index and retrievers consume.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import StorageError
from ..metering import CHUNKS_READ, CostMeter, GLOBAL_METER
from ..text.chunker import Chunk, Chunker


class TextStore:
    """Store raw text documents and serve their chunks."""

    def __init__(self, chunker: Optional[Chunker] = None,
                 meter: Optional[CostMeter] = None):
        self._chunker = chunker or Chunker()
        self._meter = meter if meter is not None else GLOBAL_METER
        self._docs: Dict[str, str] = {}
        self._chunks: Dict[str, Chunk] = {}
        self._doc_chunks: Dict[str, List[str]] = {}
        #: Moves once per :meth:`add` and once per :meth:`remove`.
        self.version = 0

    # ------------------------------------------------------------------
    def add(self, doc_id: str, text: str) -> List[Chunk]:
        """Add (or replace) a document; returns its chunks."""
        if not doc_id:
            raise StorageError("document id cannot be empty")
        if doc_id in self._docs:
            self.remove(doc_id)
        chunks = self._chunker.chunk_document(doc_id, text)
        self._docs[doc_id] = text
        self._doc_chunks[doc_id] = [c.chunk_id for c in chunks]
        for chunk in chunks:
            self._chunks[chunk.chunk_id] = chunk
        self.version += 1
        return chunks

    def add_many(self, docs: Iterable[Tuple[str, str]]) -> int:
        """Add many (id, text) documents; returns chunk count."""
        total = 0
        for doc_id, text in docs:
            total += len(self.add(doc_id, text))
        return total

    def remove(self, doc_id: str) -> None:
        """Delete a document and its chunks."""
        if doc_id not in self._docs:
            raise StorageError("no text document %r" % doc_id)
        del self._docs[doc_id]
        for chunk_id in self._doc_chunks.pop(doc_id, []):
            self._chunks.pop(chunk_id, None)
        self.version += 1

    # ------------------------------------------------------------------
    def document(self, doc_id: str) -> str:
        """The raw text of *doc_id*."""
        try:
            return self._docs[doc_id]
        except KeyError:
            raise StorageError("no text document %r" % doc_id) from None

    def chunk(self, chunk_id: str) -> Chunk:
        """Fetch one chunk by id (charges ``chunks_read``)."""
        try:
            self._meter.charge(CHUNKS_READ)
            return self._chunks[chunk_id]
        except KeyError:
            raise StorageError("no chunk %r" % chunk_id) from None

    def chunks(self) -> List[Chunk]:
        """Every chunk, ordered by (doc, position)."""
        ordered: List[Chunk] = []
        for doc_id in sorted(self._doc_chunks):
            for chunk_id in self._doc_chunks[doc_id]:
                self._meter.charge(CHUNKS_READ)
                ordered.append(self._chunks[chunk_id])
        return ordered

    def chunks_of(self, doc_id: str) -> List[Chunk]:
        """Chunks of one document in position order."""
        if doc_id not in self._doc_chunks:
            raise StorageError("no text document %r" % doc_id)
        return [self._chunks[cid] for cid in self._doc_chunks[doc_id]]

    def doc_ids(self) -> List[str]:
        """All document ids, sorted."""
        return sorted(self._docs)

    def __len__(self) -> int:
        return len(self._docs)

    @property
    def n_chunks(self) -> int:
        """Total number of chunks across all documents."""
        return len(self._chunks)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def dump_json(self) -> str:
        """Serialize raw documents to JSON (chunks rebuild on load)."""
        import json

        return json.dumps(self._docs, sort_keys=True)

    @classmethod
    def load_json(cls, text: str, chunker: Optional[Chunker] = None,
                  meter: Optional[CostMeter] = None) -> "TextStore":
        """Rebuild a store from :meth:`dump_json` output."""
        import json

        try:
            docs = json.loads(text)
        except json.JSONDecodeError as exc:
            raise StorageError("invalid text-store JSON: %s" % exc) from exc
        if not isinstance(docs, dict):
            raise StorageError("expected a JSON object of id → text")
        store = cls(chunker=chunker, meter=meter)
        for doc_id in sorted(docs):
            store.add(doc_id, docs[doc_id])
        return store
