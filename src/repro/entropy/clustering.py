"""Semantic clustering of sampled answers.

Implements the equivalence-clustering step of semantic entropy (Kuhn
et al. 2023, paper Section III.D): sampled answers are grouped into
meaning classes. Two judges are provided:

* **entailment clustering** — bidirectional entailment against each
  cluster's representative (the paper's method);
* **embedding clustering** — cosine threshold against cluster
  centroids (the cheaper variant; E3 ablates the two).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from ..errors import EntropyError
from ..slm.embeddings import EmbeddingModel
from ..slm.entailment import EntailmentJudge


@dataclass
class AnswerCluster:
    """One meaning class: member indices plus the representative text."""

    representative: str
    members: List[int] = field(default_factory=list)

    @property
    def size(self) -> int:
        """Number of member answers."""
        return len(self.members)


def cluster_by_entailment(answers: Sequence[str],
                          judge: EntailmentJudge) -> List[AnswerCluster]:
    """Greedy bidirectional-entailment clustering.

    Each answer joins the first cluster whose representative it is
    mutually entailed with, else founds a new cluster. Deterministic in
    input order.
    """
    if not answers:
        raise EntropyError("cannot cluster zero answers")
    clusters: List[AnswerCluster] = []
    for i, answer in enumerate(answers):
        placed = False
        for cluster in clusters:
            if judge.equivalent(answer, cluster.representative):
                cluster.members.append(i)
                placed = True
                break
        if not placed:
            clusters.append(AnswerCluster(answer, [i]))
    return clusters


def cluster_by_embedding(answers: Sequence[str], embedder: EmbeddingModel,
                         threshold: float = 0.7) -> List[AnswerCluster]:
    """Greedy centroid clustering on embedding cosine similarity."""
    if not answers:
        raise EntropyError("cannot cluster zero answers")
    if not -1.0 <= threshold <= 1.0:
        raise EntropyError("threshold must be a cosine in [-1, 1]")
    clusters: List[AnswerCluster] = []
    centroids: List[np.ndarray] = []
    sums: List[np.ndarray] = []
    for i, answer in enumerate(answers):
        vec = embedder.embed(answer)
        best_idx, best_sim = -1, threshold
        for idx, centroid in enumerate(centroids):
            sim = embedder.cosine(vec, centroid)
            if sim >= best_sim:
                best_idx, best_sim = idx, sim
        if best_idx >= 0:
            clusters[best_idx].members.append(i)
            sums[best_idx] = sums[best_idx] + vec
            norm = np.linalg.norm(sums[best_idx])
            centroids[best_idx] = (
                sums[best_idx] / norm if norm > 0 else sums[best_idx]
            )
        else:
            clusters.append(AnswerCluster(answer, [i]))
            centroids.append(vec)
            sums.append(vec.copy())
    return clusters
