"""Document chunking for graph indexing and retrieval.

Text chunks are "the foundational segments derived from raw documents,
serving as the basic nodes within the graph" (paper, Section III.A).
The chunker splits on sentence boundaries and packs sentences into
chunks bounded by a token budget with optional overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .tokenizer import split_sentences, words


@dataclass(frozen=True)
class Chunk:
    """A contiguous document segment.

    ``chunk_id`` is globally unique within a corpus build; ``doc_id``
    ties the chunk back to its source document for provenance.
    """

    chunk_id: str
    doc_id: str
    text: str
    position: int
    n_tokens: int


@dataclass
class ChunkerConfig:
    """Tunables for :class:`Chunker`.

    max_tokens:
        Upper bound on tokens per chunk; a single longer sentence is
        kept whole rather than split mid-sentence.
    overlap_sentences:
        Number of trailing sentences repeated at the start of the next
        chunk to preserve cross-boundary context.
    """

    max_tokens: int = 96
    overlap_sentences: int = 1

    def __post_init__(self):
        if self.max_tokens <= 0:
            raise ValueError("max_tokens must be positive")
        if self.overlap_sentences < 0:
            raise ValueError("overlap_sentences must be >= 0")


class Chunker:
    """Split documents into :class:`Chunk` objects."""

    def __init__(self, config: Optional[ChunkerConfig] = None):
        self._config = config or ChunkerConfig()

    def chunk_document(self, doc_id: str, text: str) -> List[Chunk]:
        """Chunk one document; returns [] for blank text.

        >>> chunks = Chunker().chunk_document("d1", "A b. C d.")
        >>> len(chunks)
        1
        """
        sentences = split_sentences(text)
        if not sentences:
            return []
        cfg = self._config
        chunks: List[Chunk] = []
        current: List[str] = []
        current_tokens = 0
        position = 0

        def flush():
            nonlocal current, current_tokens, position
            if not current:
                return
            chunk_text = " ".join(current)
            chunks.append(
                Chunk(
                    chunk_id="%s#%d" % (doc_id, position),
                    doc_id=doc_id,
                    text=chunk_text,
                    position=position,
                    n_tokens=current_tokens,
                )
            )
            position += 1
            if cfg.overlap_sentences and len(current) > cfg.overlap_sentences:
                current = current[-cfg.overlap_sentences:]
                current_tokens = sum(len(words(s)) for s in current)
            else:
                current = []
                current_tokens = 0

        for sentence in sentences:
            n = len(words(sentence))
            if current and current_tokens + n > cfg.max_tokens:
                flush()
            current.append(sentence)
            current_tokens += n
            if current_tokens >= cfg.max_tokens:
                flush()
        if current and (not chunks or chunks[-1].text != " ".join(current)):
            # Flush the tail unless it is exactly the overlap remnant.
            tail_is_overlap_only = (
                chunks
                and len(current) <= cfg.overlap_sentences
                and " ".join(current) in chunks[-1].text
            )
            if not tail_is_overlap_only:
                chunk_text = " ".join(current)
                chunks.append(
                    Chunk(
                        chunk_id="%s#%d" % (doc_id, position),
                        doc_id=doc_id,
                        text=chunk_text,
                        position=position,
                        n_tokens=current_tokens,
                    )
                )
        return chunks

    def chunk_corpus(self, docs) -> List[Chunk]:
        """Chunk a mapping/list of (doc_id, text) pairs into one list."""
        items = docs.items() if hasattr(docs, "items") else docs
        all_chunks: List[Chunk] = []
        for doc_id, text in items:
            all_chunks.extend(self.chunk_document(doc_id, text))
        return all_chunks
