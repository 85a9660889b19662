"""Semantic entropy estimation (paper Section III.D).

Given N sampled answers to one question, cluster them by meaning and
compute the entropy of the cluster distribution. Low entropy = the
model keeps saying the same thing (reliable); high entropy = divergent
meanings (flag for review).

Two weightings:

* **discrete** — each sample counts 1/N (Kuhn et al.'s discrete SE);
* **likelihood** — clusters weighted by the summed sequence
  probabilities of their members (Rao-Blackwellized variant), when
  token log-probabilities are available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..errors import EntropyError
from ..slm.embeddings import EmbeddingModel
from ..slm.entailment import EntailmentJudge
from ..slm.generator import Generation
from .clustering import (
    AnswerCluster, cluster_by_embedding, cluster_by_entailment,
)

METHOD_ENTAILMENT = "entailment"
METHOD_EMBEDDING = "embedding"


@dataclass
class EntropyEstimate:
    """The result of one semantic-entropy measurement."""

    entropy: float
    n_clusters: int
    n_samples: int
    clusters: List[AnswerCluster]
    method: str

    @property
    def normalized(self) -> float:
        """Entropy scaled to [0, 1] by the log of the sample count."""
        if self.n_samples <= 1:
            return 0.0
        return self.entropy / math.log(self.n_samples)

    @property
    def majority_answer(self) -> str:
        """Representative of the largest cluster."""
        best = max(self.clusters, key=lambda c: c.size)
        return best.representative


def _entropy_from_weights(weights: Sequence[float]) -> float:
    total = sum(weights)
    if total <= 0:
        raise EntropyError("cluster weights must be positive")
    entropy = 0.0
    for weight in weights:
        if weight <= 0:
            continue
        p = weight / total
        entropy -= p * math.log(p)
    return entropy


class SemanticEntropyEstimator:
    """Estimate semantic entropy over sampled generations."""

    def __init__(self, judge: Optional[EntailmentJudge] = None,
                 embedder: Optional[EmbeddingModel] = None,
                 method: str = METHOD_ENTAILMENT,
                 embedding_threshold: float = 0.7):
        if method not in (METHOD_ENTAILMENT, METHOD_EMBEDDING):
            raise EntropyError("unknown clustering method %r" % method)
        if method == METHOD_ENTAILMENT and judge is None:
            raise EntropyError("entailment method needs a judge")
        if method == METHOD_EMBEDDING and embedder is None:
            raise EntropyError("embedding method needs an embedder")
        self._judge = judge
        self._embedder = embedder
        self._method = method
        self._threshold = embedding_threshold

    def _cluster(self, answers: Sequence[str]) -> List[AnswerCluster]:
        if self._method == METHOD_ENTAILMENT:
            return cluster_by_entailment(answers, self._judge)
        return cluster_by_embedding(
            answers, self._embedder, self._threshold
        )

    def estimate(self, generations: Sequence[Generation],
                 likelihood_weighted: bool = False) -> EntropyEstimate:
        """Semantic entropy over :class:`Generation` samples.

        With ``likelihood_weighted`` clusters are weighted by their
        members' sequence probabilities instead of raw counts.
        """
        if not generations:
            raise EntropyError("need at least one generation")
        answers = [g.text for g in generations]
        clusters = self._cluster(answers)
        if likelihood_weighted:
            weights = []
            for cluster in clusters:
                weight = sum(
                    math.exp(generations[i].mean_logprob)
                    for i in cluster.members
                )
                weights.append(weight)
        else:
            weights = [float(c.size) for c in clusters]
        return EntropyEstimate(
            entropy=_entropy_from_weights(weights),
            n_clusters=len(clusters),
            n_samples=len(generations),
            clusters=clusters,
            method=self._method,
        )
