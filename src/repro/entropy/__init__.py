"""Semantic entropy and uncertainty calibration (paper Section III.D)."""

from .baselines import (
    BASELINES, all_baselines, length_normalized_entropy,
    lexical_dissimilarity, mean_answer_length, predictive_entropy,
)
from .calibration import accuracy_at_coverage, auroc, compare_methods
from .clustering import (
    AnswerCluster, cluster_by_embedding, cluster_by_entailment,
)
from .semantic_entropy import (
    METHOD_EMBEDDING, METHOD_ENTAILMENT, EntropyEstimate,
    SemanticEntropyEstimator,
)

__all__ = [
    "BASELINES", "all_baselines", "length_normalized_entropy",
    "lexical_dissimilarity", "mean_answer_length", "predictive_entropy",
    "accuracy_at_coverage", "auroc", "compare_methods",
    "AnswerCluster", "cluster_by_embedding", "cluster_by_entailment",
    "METHOD_EMBEDDING", "METHOD_ENTAILMENT", "EntropyEstimate",
    "SemanticEntropyEstimator",
]
