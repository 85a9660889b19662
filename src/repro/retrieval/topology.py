"""Topology-enhanced retrieval (paper Section III.B).

Instead of embedding the whole corpus, the retriever:

1. tags the query's entities with the SLM (one lightweight tagging
   call — *no* per-chunk embedding);
2. maps them onto anchor entity nodes of the heterogeneous graph
   (exact normalized match, then fuzzy token-overlap fallback);
3. BFS-expands from the anchors over MENTIONS/RELATES/CO_OCCURS edges,
   collecting candidate chunk nodes within a hop budget;
4. scores candidates by anchor coverage, hop distance, a precomputed
   centrality prior (PageRank), and keyword overlap — "centrality and
   connectivity" per the paper.

A BM25 fallback handles entity-free queries, so the retriever never
returns nothing merely because tagging found no anchors.

The retriever outlives writes: after the graph has taken new chunks,
:meth:`TopologyRetriever.update` attaches them (and detaches removed
ids), forwards the delta to the fallback and recomputes the centrality
prior; :meth:`TopologyRetriever.index` is "clear, then ``update``". The
state after any sequence of updates equals that of a fresh retriever
indexed over the same graph and the surviving chunks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from ..errors import RetrievalError
from ..graphindex.centrality import normalize_scores, pagerank
from ..graphindex.hetgraph import HeterogeneousGraph
from ..graphindex.nodes import (
    EDGE_CO_OCCURS, EDGE_DESCRIBES, EDGE_MENTIONS, EDGE_RELATES,
    NODE_ENTITY, entity_key,
)
from ..metering import CostMeter, GLOBAL_METER, NODES_SCORED
from ..obs import span
from ..slm.model import SmallLanguageModel
from ..text.chunker import Chunk
from ..text.stopwords import content_stems
from .base import RetrievedChunk, Retriever, top_k
from .lexical import BM25Retriever

_TRAVERSAL_EDGES = (
    EDGE_MENTIONS, EDGE_RELATES, EDGE_CO_OCCURS, EDGE_DESCRIBES,
)


@dataclass
class TopologyConfig:
    """Scoring weights and traversal budget.

    max_depth:
        BFS hop budget from anchor entities (2 reaches
        entity → chunk → entity → chunk patterns).
    max_nodes:
        Hard cap on expanded nodes per query (work bound).
    anchor_weight / depth_weight / centrality_weight / lexical_weight:
        Mixing weights of the four score components.
    use_centrality:
        Ablation switch (E7): drop the centrality prior when False.
    """

    max_depth: int = 3
    max_nodes: int = 400
    anchor_weight: float = 1.0
    depth_weight: float = 0.5
    centrality_weight: float = 0.3
    lexical_weight: float = 0.4
    use_centrality: bool = True

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.max_nodes < 1:
            raise ValueError("max_nodes must be >= 1")


class TopologyRetriever(Retriever):
    """Graph-traversal retrieval over a heterogeneous index."""

    name = "topology"

    def __init__(self, graph: HeterogeneousGraph, slm: SmallLanguageModel,
                 config: Optional[TopologyConfig] = None,
                 meter: Optional[CostMeter] = None):
        self._graph = graph
        self._slm = slm
        self._config = config or TopologyConfig()
        self._meter = meter if meter is not None else GLOBAL_METER
        self._chunks: Dict[str, Chunk] = {}
        self._centrality: Dict[str, float] = {}
        self._entity_tokens: Dict[str, Set[str]] = {}
        self._fallback = BM25Retriever(meter=self._meter)
        self._indexed = False

    # ------------------------------------------------------------------
    def index(self, chunks: Sequence[Chunk]) -> None:
        """Drop what is attached, then ``update(chunks)``.

        The heavy lifting (tagging, edge construction) already happened
        in :class:`~repro.graphindex.builder.GraphIndexBuilder`; indexing
        here costs one PageRank pass and zero model calls.
        """
        self._chunks.clear()
        self._entity_tokens.clear()
        self._fallback.index(())
        self.update(chunks)

    def update(self, added: Sequence[Chunk],
               removed: Sequence[str] = ()) -> None:
        """Follow the graph after a write: the delta, then centrality.

        *added* chunks (which must already be in the graph) are
        attached and *removed* chunk ids detached, here and in the BM25
        fallback; only the added chunks' text is analysed. Entity-label
        stem sets are kept for the entity nodes the graph still holds
        and computed for the ones it gained. The one corpus-wide step
        is PageRank: a new node moves every rank.
        """
        missing = [
            c.chunk_id for c in added
            if not self._graph.has_node("chunk:%s" % c.chunk_id)
        ]
        if missing:
            raise RetrievalError(
                "chunks missing from graph: %s" % missing[:3]
            )
        for chunk_id in removed:
            self._chunks.pop(chunk_id, None)
        for chunk in added:
            self._chunks[chunk.chunk_id] = chunk
        if self._config.use_centrality:
            self._centrality = normalize_scores(pagerank(self._graph))
        else:
            self._centrality = {}
        # A node's label never changes, so a stem set computed once
        # stays right; rebuilding the dict drops merged-away entities.
        known = self._entity_tokens
        self._entity_tokens = {}
        for node in self._graph.nodes(NODE_ENTITY):
            tokens = known.get(node.node_id)
            if tokens is None:
                tokens = set(content_stems(node.label))
            self._entity_tokens[node.node_id] = tokens
        self._fallback.update(added, removed)
        self._indexed = True

    # ------------------------------------------------------------------
    def _query_anchors(self, query: str,
                       query_stems: Set[str]) -> List[str]:
        """Anchor entity node ids for *query* (exact, then fuzzy)."""
        anchors: List[str] = []
        entities = self._slm.tag_entities(query)
        for entity in entities:
            key = entity_key(entity.norm)
            if self._graph.has_node(key):
                anchors.append(key)
        if anchors:
            return sorted(set(anchors))
        # Fuzzy fallback: entity labels sharing >= half their tokens
        # with the query.
        for node_id, tokens in self._entity_tokens.items():
            if not tokens:
                continue
            overlap = len(tokens & query_stems) / len(tokens)
            if overlap >= 0.5 and len(tokens & query_stems) >= 1:
                anchors.append(node_id)
        return sorted(set(anchors))

    def retrieve(self, query: str, k: int = 5) -> List[RetrievedChunk]:
        """Anchor, traverse and score; falls back to BM25 if anchorless."""
        self._check_ready(self._indexed)
        self._check_k(k)
        with span("retrieval.topology", k=k) as sp:
            return self._retrieve(query, k, sp)

    def _retrieve(self, query: str, k: int, sp) -> List[RetrievedChunk]:
        cfg = self._config
        query_stems = set(content_stems(query))
        anchors = self._query_anchors(query, query_stems)
        sp.set("anchors", len(anchors))
        if not anchors:
            sp.set("fallback", "bm25")
            return self._fallback.retrieve(query, k)

        # Per-anchor BFS so anchor coverage can be counted.
        chunk_depths: Dict[str, Dict[str, int]] = {}
        for anchor in anchors:
            depths = self._graph.bfs(
                [anchor], max_depth=cfg.max_depth,
                edge_kinds=_TRAVERSAL_EDGES,
                max_nodes=cfg.max_nodes // max(len(anchors), 1),
            )
            for node_id, depth in depths.items():
                if not node_id.startswith("chunk:"):
                    continue
                chunk_id = node_id[len("chunk:"):]
                if chunk_id not in self._chunks:
                    continue
                per_chunk = chunk_depths.setdefault(chunk_id, {})
                prev = per_chunk.get(anchor)
                if prev is None or depth < prev:
                    per_chunk[anchor] = depth

        sp.set("candidates", len(chunk_depths))
        if not chunk_depths:
            sp.set("fallback", "bm25")
            return self._fallback.retrieve(query, k)

        scores: Dict[str, float] = {}
        components: Dict[str, Dict[str, float]] = {}
        for chunk_id, per_anchor in chunk_depths.items():
            self._meter.charge(NODES_SCORED)
            coverage = len(per_anchor) / len(anchors)
            min_depth = min(per_anchor.values())
            depth_score = 1.0 / (1.0 + min_depth)
            central = self._centrality.get("chunk:%s" % chunk_id, 0.0)
            # Term sets were computed when the fallback indexed the
            # same chunks; chunk text is never re-analysed per query.
            lexical = (
                len(self._fallback.terms(chunk_id) & query_stems)
                / len(query_stems)
                if query_stems else 0.0
            )
            parts = {
                "anchor": cfg.anchor_weight * coverage,
                "depth": cfg.depth_weight * depth_score,
                "centrality": cfg.centrality_weight * central,
                "lexical": cfg.lexical_weight * lexical,
            }
            components[chunk_id] = parts
            scores[chunk_id] = sum(parts.values())
        return top_k(scores, self._chunks, k, components)

    # ------------------------------------------------------------------
    def explain(self, query: str, k: int = 5) -> str:
        """Human-readable scoring breakdown for debugging/examples."""
        hits = self.retrieve(query, k)
        anchors = self._query_anchors(query, set(content_stems(query)))
        lines = ["anchors: %s" % ", ".join(anchors)]
        for hit in hits:
            parts = ", ".join(
                "%s=%.3f" % (name, value)
                for name, value in sorted(hit.components.items())
            )
            lines.append(
                "%.3f %s [%s] %s"
                % (hit.score, hit.chunk_id, parts, hit.chunk.text[:60])
            )
        return "\n".join(lines)
