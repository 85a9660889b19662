"""Retriever fusion and reranking (paper Section IV, future work).

The paper's conclusion commits to "further optimize the retrieval
mechanism to handle even larger and more diverse datasets". This module
implements the standard recipe:

* :func:`reciprocal_rank_fusion` — combine rankings from heterogeneous
  retrievers without score calibration;
* :class:`FusionRetriever` — run several retrievers and RRF-merge,
  e.g. topology (structure) + BM25 (vocabulary) to cover both
  lexically-saturated and relational-hop queries (the two regimes E1/E7
  expose);
* :class:`KeywordReranker` — a cheap final rerank by query-term
  coverage, boosting chunks that contain *all* query facets (helps
  multi-entity comparisons).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..errors import RetrievalError
from ..metering import CostMeter, GLOBAL_METER, NODES_SCORED
from ..obs import span
from ..text.chunker import Chunk
from ..text.stopwords import content_stems
from .base import RetrievedChunk, Retriever


def reciprocal_rank_fusion(
    rankings: Sequence[Sequence[RetrievedChunk]], k: int = 60,
) -> List[RetrievedChunk]:
    """Merge rankings by RRF: score(d) = Σ 1 / (k + rank_i(d)).

    The constant *k* damps the head; 60 is the classic default.
    Returns fused results, best first, with the fused score and each
    source rank recorded in ``components``.
    """
    if k < 1:
        raise RetrievalError("RRF k must be >= 1")
    scores: Dict[str, float] = {}
    chunks: Dict[str, Chunk] = {}
    ranks: Dict[str, Dict[str, float]] = {}
    for source_idx, ranking in enumerate(rankings):
        for rank, hit in enumerate(ranking):
            chunk_id = hit.chunk_id
            scores[chunk_id] = scores.get(chunk_id, 0.0) + 1.0 / (
                k + rank + 1
            )
            chunks[chunk_id] = hit.chunk
            ranks.setdefault(chunk_id, {})[
                "rank_src%d" % source_idx
            ] = float(rank + 1)
    ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return [
        RetrievedChunk(chunks[cid], score, ranks.get(cid, {}))
        for cid, score in ordered
    ]


class FusionRetriever(Retriever):
    """RRF-merge several member retrievers behind one interface."""

    name = "fusion"

    def __init__(self, retrievers: Sequence[Retriever],
                 rrf_k: int = 60, pool_factor: int = 3):
        if not retrievers:
            raise RetrievalError("fusion needs at least one retriever")
        if pool_factor < 1:
            raise RetrievalError("pool_factor must be >= 1")
        self._retrievers = list(retrievers)
        self._rrf_k = rrf_k
        self._pool_factor = pool_factor
        self._indexed = False

    def index(self, chunks: Sequence[Chunk]) -> None:
        """Index every member retriever."""
        for retriever in self._retrievers:
            retriever.index(chunks)
        self._indexed = True

    def retrieve(self, query: str, k: int = 5) -> List[RetrievedChunk]:
        """Pull a deeper pool from each member and RRF-merge."""
        self._check_ready(self._indexed)
        self._check_k(k)
        with span("retrieval.fusion", k=k) as sp:
            pool = k * self._pool_factor
            rankings = [
                retriever.retrieve(query, pool)
                for retriever in self._retrievers
            ]
            fused = reciprocal_rank_fusion(rankings, self._rrf_k)
            sp.set("candidates", len(fused))
            return fused[:k]


class KeywordReranker:
    """Rerank hits by coverage of the query's content terms.

    Multi-entity comparison queries need chunks covering *each* facet;
    plain relevance scores often rank one facet's chunks above all of
    the other's. Coverage mixing keeps per-facet representation.
    """

    def __init__(self, coverage_weight: float = 0.5,
                 meter: Optional[CostMeter] = None):
        if not 0.0 <= coverage_weight <= 1.0:
            raise RetrievalError("coverage_weight must be in [0, 1]")
        self._weight = coverage_weight
        self._meter = meter if meter is not None else GLOBAL_METER

    def rerank(self, query: str,
               hits: Sequence[RetrievedChunk]) -> List[RetrievedChunk]:
        """Return *hits* re-sorted by mixed original/coverage score."""
        with span("retrieval.rerank", n_hits=len(hits)):
            return self._rerank(query, hits)

    def _rerank(self, query: str,
                hits: Sequence[RetrievedChunk]) -> List[RetrievedChunk]:
        query_stems = set(content_stems(query))
        if not query_stems or not hits:
            return list(hits)
        max_score = max(hit.score for hit in hits) or 1.0
        rescored = []
        for hit in hits:
            self._meter.charge(NODES_SCORED)
            chunk_stems = set(content_stems(hit.chunk.text))
            coverage = len(query_stems & chunk_stems) / len(query_stems)
            mixed = (1.0 - self._weight) * (hit.score / max_score) \
                + self._weight * coverage
            components = dict(hit.components)
            components["rerank_coverage"] = coverage
            rescored.append(RetrievedChunk(hit.chunk, mixed, components))
        rescored.sort(key=lambda h: (-h.score, h.chunk_id))
        return rescored
