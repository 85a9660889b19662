"""Entity resolution across sources (alias merging).

Heterogeneous sources name the same entity differently: the catalog
says "Alpha Widget", a review says "the Alpha Widget 2024", a log says
"ALPHA-WIDGET". Unresolved, the graph holds disconnected duplicates and
cross-modal queries silently miss evidence. This module finds and
merges alias entity nodes:

* **token-subset aliases** — one name's content tokens are a subset of
  the other's ("alpha widget" ⊂ "alpha widget 2024");
* **near-duplicate surfaces** — high Jaccard overlap of stemmed tokens
  plus (optionally) embedding cosine agreement.

The shorter/earlier name survives as canonical; merged labels are kept
in the survivor's ``payload["aliases"]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..slm.embeddings import EmbeddingModel
from ..text.stemmer import stem
from ..text.stopwords import content_stems
from .hetgraph import HeterogeneousGraph
from .nodes import NODE_ENTITY

_GENERIC_STEMS = frozenset(
    stem(w) for w in ("2023", "2024", "2025", "model", "edition", "new",
                      "series", "version", "pro", "plus")
)


def _alias_tokens(label: str) -> Set[str]:
    return set(content_stems(label)) - _GENERIC_STEMS


@dataclass(frozen=True)
class AliasPair:
    """A proposed merge: drop → keep, with the evidence score."""

    keep: str
    drop: str
    score: float


def find_alias_pairs(graph: HeterogeneousGraph,
                     min_overlap: float = 0.99,
                     embedder: Optional[EmbeddingModel] = None,
                     min_cosine: float = 0.75) -> List[AliasPair]:
    """Propose entity merges, highest-confidence first.

    A pair qualifies when one label's informative tokens are a
    (non-empty) subset of the other's, or their Jaccard overlap reaches
    *min_overlap*. With an *embedder*, candidates must also agree by
    cosine — guarding against "alpha widget" vs "alpha cable" when the
    informative token sets accidentally align.
    """
    entities = graph.nodes(NODE_ENTITY)
    tokens = {n.node_id: _alias_tokens(n.label) for n in entities}
    proposals: List[AliasPair] = []
    for i, a in enumerate(entities):
        ta = tokens[a.node_id]
        if not ta:
            continue
        for b in entities[i + 1:]:
            tb = tokens[b.node_id]
            if not tb or ta == tb and a.label == b.label:
                continue
            union = ta | tb
            inter = ta & tb
            if not inter:
                continue
            jaccard = len(inter) / len(union)
            subset = ta <= tb or tb <= ta
            if not subset and jaccard < min_overlap:
                continue
            if embedder is not None:
                cosine = embedder.similarity(a.label, b.label)
                if cosine < min_cosine:
                    continue
                score = cosine
            else:
                score = jaccard if not subset else max(jaccard, 0.9)
            # Keep the shorter (more canonical) name.
            keep, drop = (a, b) if len(a.label) <= len(b.label) else (b, a)
            proposals.append(AliasPair(keep.node_id, drop.node_id, score))
    proposals.sort(key=lambda p: (-p.score, p.keep, p.drop))
    return proposals


def resolve_aliases(graph: HeterogeneousGraph,
                    min_overlap: float = 0.99,
                    embedder: Optional[EmbeddingModel] = None,
                    min_cosine: float = 0.75) -> int:
    """Merge all proposed alias pairs in place; returns merges applied.

    Pairs are applied best-first; chains resolve transitively (if B
    merged into A already, a later C→B proposal retargets to A).
    """
    proposals = find_alias_pairs(graph, min_overlap, embedder, min_cosine)
    redirect: Dict[str, str] = {}

    def resolve(node_id: str) -> str:
        while node_id in redirect:
            node_id = redirect[node_id]
        return node_id

    merges = 0
    for pair in proposals:
        keep = resolve(pair.keep)
        drop = resolve(pair.drop)
        if keep == drop or not graph.has_node(drop):
            continue
        graph.merge_nodes(keep, drop)
        redirect[drop] = keep
        merges += 1
    return merges
