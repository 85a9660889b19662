"""BM25 lexical retrieval (Okapi BM25, k1/b parameterization).

The classic sparse baseline: cheap to build (no model calls), strong on
keyword queries, blind to paraphrase. Terms are stopword-filtered and
Porter-stemmed so "increase"/"increased" match.

The index is long-lived: :meth:`BM25Retriever.update` analyses the
chunks it is handed and unlinks the ids it is told to drop, so a write
costs what it touches; :meth:`BM25Retriever.index` is "clear, then
``update``". The state after any sequence of updates equals that of a
fresh ``index`` over the surviving chunks.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, FrozenSet, List, Optional, Sequence

from ..metering import CostMeter, GLOBAL_METER, NODES_SCORED
from ..obs import span
from ..text.chunker import Chunk
from ..text.stopwords import content_stems
from .base import RetrievedChunk, Retriever, top_k


class BM25Retriever(Retriever):
    """Okapi BM25 over chunk text."""

    name = "bm25"

    def __init__(self, k1: float = 1.5, b: float = 0.75,
                 meter: Optional[CostMeter] = None):
        if k1 <= 0 or not 0.0 <= b <= 1.0:
            raise ValueError("need k1 > 0 and 0 <= b <= 1")
        self._k1 = k1
        self._b = b
        self._meter = meter if meter is not None else GLOBAL_METER
        self._chunks: Dict[str, Chunk] = {}
        # Inverted index: term → {chunk_id: term_frequency}, so that
        # unlinking a chunk is a delete per term it holds.
        self._postings: Dict[str, Dict[str, int]] = {}
        self._doc_len: Dict[str, int] = {}
        self._terms: Dict[str, FrozenSet[str]] = {}
        self._total_len = 0
        self._avg_len = 0.0
        self._indexed = False

    def index(self, chunks: Sequence[Chunk]) -> None:
        """Drop the current index, then ``update(chunks)``."""
        for state in (self._chunks, self._postings, self._doc_len,
                      self._terms):
            state.clear()
        self._total_len = 0
        self.update(chunks)

    def update(self, added: Sequence[Chunk],
               removed: Sequence[str] = ()) -> None:
        """Unlink the chunk ids in *removed*, then analyse *added*.

        An added chunk whose id is already indexed replaces the old
        one; a removed id that is not indexed is ignored. Only the
        added chunks' text is analysed.
        """
        for chunk_id in removed:
            self._unlink(chunk_id)
        for chunk in added:
            self._unlink(chunk.chunk_id)
            terms = content_stems(chunk.text)
            counts = Counter(terms)
            self._chunks[chunk.chunk_id] = chunk
            self._doc_len[chunk.chunk_id] = len(terms)
            self._terms[chunk.chunk_id] = frozenset(counts)
            self._total_len += len(terms)
            for term, tf in counts.items():
                self._postings.setdefault(term, {})[chunk.chunk_id] = tf
        self._avg_len = (self._total_len / len(self._chunks)
                         if self._chunks else 0.0)
        self._indexed = True

    def _unlink(self, chunk_id: str) -> None:
        if self._chunks.pop(chunk_id, None) is None:
            return
        self._total_len -= self._doc_len.pop(chunk_id)
        for term in self._terms.pop(chunk_id):
            postings = self._postings[term]
            del postings[chunk_id]
            if not postings:
                del self._postings[term]

    def terms(self, chunk_id: str) -> FrozenSet[str]:
        """Distinct content stems of an indexed chunk, as of indexing.

        Lets a caller that scores chunks against a query (the topology
        retriever) skip re-analysing chunk text per query. Raises
        ``KeyError`` for a chunk that is not (or no longer) indexed.
        """
        return self._terms[chunk_id]

    def _idf(self, term: str) -> float:
        n = len(self._chunks)
        df = len(self._postings.get(term, ()))
        return math.log(1.0 + (n - df + 0.5) / (df + 0.5))

    def retrieve(self, query: str, k: int = 5) -> List[RetrievedChunk]:
        """Score only the chunks on the query terms' posting lists."""
        self._check_ready(self._indexed)
        self._check_k(k)
        with span("retrieval.lexical", k=k) as sp:
            query_terms = content_stems(query)
            scores: Dict[str, float] = {}
            for term in dict.fromkeys(query_terms):
                postings = self._postings.get(term)
                if not postings:
                    continue
                idf = self._idf(term)
                for chunk_id, tf in postings.items():
                    self._meter.charge(NODES_SCORED)
                    length_norm = 1.0 - self._b + self._b * (
                        self._doc_len[chunk_id] / (self._avg_len or 1.0)
                    )
                    scores[chunk_id] = scores.get(chunk_id, 0.0) + idf * (
                        tf * (self._k1 + 1.0)
                    ) / (tf + self._k1 * length_norm)
            sp.set("scored", len(scores))
            return top_k(scores, self._chunks, k)
