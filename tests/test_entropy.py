"""Tests for semantic-entropy clustering, estimation, baselines and
calibration."""

import math

import pytest

from repro.errors import EntropyError
from repro.metering import CostMeter
from repro.entropy import (
    EntropyEstimate, METHOD_EMBEDDING, METHOD_ENTAILMENT,
    SemanticEntropyEstimator, accuracy_at_coverage, all_baselines, auroc,
    cluster_by_embedding, cluster_by_entailment,
    compare_methods, lexical_dissimilarity, predictive_entropy,
)
from repro.slm import SLMConfig, SmallLanguageModel
from repro.slm.embeddings import EmbeddingModel
from repro.slm.entailment import EntailmentJudge
from repro.slm.generator import Generation

CONSISTENT = [
    "sales rose 20%",
    "the sales rose 20%",
    "sales rose 20%, according to the records",
]
DIVERGENT = [
    "sales rose 20%",
    "sales fell 5%",
    "it depends on the jurisdiction",
]


def make_judge():
    return EntailmentJudge(meter=CostMeter())


def make_embedder():
    return EmbeddingModel(dim=64, meter=CostMeter())


def gen(text, mean_lp=-0.5, grounded=True):
    return Generation(
        text=text, token_logprobs=(mean_lp,) * max(1, len(text.split())),
        grounded=grounded, support=(0,) if grounded else (),
        confidence=0.8 if grounded else 0.2,
    )


def gens(texts):
    return [gen(text) for text in texts]


class TestClustering:
    def test_entailment_consistent_one_cluster(self):
        clusters = cluster_by_entailment(CONSISTENT, make_judge())
        assert len(clusters) == 1
        assert clusters[0].size == 3

    def test_entailment_divergent_many_clusters(self):
        clusters = cluster_by_entailment(DIVERGENT, make_judge())
        assert len(clusters) == 3

    def test_embedding_consistent_one_cluster(self):
        clusters = cluster_by_embedding(CONSISTENT, make_embedder(),
                                        threshold=0.5)
        assert len(clusters) == 1

    def test_embedding_unrelated_splits(self):
        answers = ["sales rose 20%", "the patient recovered fully"]
        clusters = cluster_by_embedding(answers, make_embedder(),
                                        threshold=0.5)
        assert len(clusters) == 2

    def test_empty_rejected(self):
        with pytest.raises(EntropyError):
            cluster_by_entailment([], make_judge())
        with pytest.raises(EntropyError):
            cluster_by_embedding([], make_embedder())

    def test_bad_threshold(self):
        with pytest.raises(EntropyError):
            cluster_by_embedding(["a"], make_embedder(), threshold=2.0)

    def test_cluster_sizes_sorted(self):
        clusters = cluster_by_entailment(
            CONSISTENT + ["completely unrelated thing"], make_judge()
        )
        assert sorted((c.size for c in clusters), reverse=True) == [3, 1]

    def test_members_cover_all_indices(self):
        clusters = cluster_by_entailment(DIVERGENT, make_judge())
        members = sorted(i for c in clusters for i in c.members)
        assert members == [0, 1, 2]


class TestSemanticEntropy:
    def make(self, method=METHOD_ENTAILMENT):
        return SemanticEntropyEstimator(
            judge=make_judge(), embedder=make_embedder(), method=method
        )

    def test_consistent_low_entropy(self):
        estimate = self.make().estimate(gens(CONSISTENT))
        assert estimate.entropy == 0.0
        assert estimate.n_clusters == 1

    def test_divergent_high_entropy(self):
        estimate = self.make().estimate(gens(DIVERGENT))
        assert estimate.entropy == pytest.approx(math.log(3))

    def test_normalized_in_unit_range(self):
        estimate = self.make().estimate(gens(DIVERGENT))
        assert 0.0 <= estimate.normalized <= 1.0
        assert estimate.normalized == pytest.approx(1.0)

    def test_majority_answer(self):
        answers = CONSISTENT + ["something else entirely happened"]
        estimate = self.make().estimate(gens(answers))
        assert "20%" in estimate.majority_answer

    def test_embedding_method(self):
        estimate = self.make(METHOD_EMBEDDING).estimate(gens(CONSISTENT))
        assert estimate.method == METHOD_EMBEDDING
        assert estimate.entropy == 0.0

    def test_generations_weighted(self):
        gens = [gen("sales rose 20%", -0.1), gen("sales fell 5%", -3.0)]
        uniform = self.make().estimate(gens, likelihood_weighted=False)
        weighted = self.make().estimate(gens, likelihood_weighted=True)
        # Likelihood weighting shifts mass toward the confident answer,
        # lowering entropy below the uniform 2-cluster value.
        assert weighted.entropy < uniform.entropy

    def test_single_sample_zero(self):
        estimate = self.make().estimate([gen("one answer")])
        assert estimate.entropy == 0.0 and estimate.normalized == 0.0

    def test_empty_generations_rejected(self):
        with pytest.raises(EntropyError):
            self.make().estimate([])

    def test_constructor_validation(self):
        with pytest.raises(EntropyError):
            SemanticEntropyEstimator(method="bogus", judge=make_judge())
        with pytest.raises(EntropyError):
            SemanticEntropyEstimator(method=METHOD_ENTAILMENT)
        with pytest.raises(EntropyError):
            SemanticEntropyEstimator(method=METHOD_EMBEDDING)


class TestBaselines:
    def test_predictive_entropy_orders_confidence(self):
        confident = [gen("a b c", -0.1)] * 3
        unsure = [gen("a b c", -2.5)] * 3
        assert predictive_entropy(unsure) > predictive_entropy(confident)

    def test_lexical_dissimilarity_range(self):
        same = [gen("sales rose 20%")] * 3
        diff = [gen("sales rose"), gen("weather was mild"),
                gen("patient recovered")]
        assert lexical_dissimilarity(same) == pytest.approx(0.0)
        assert lexical_dissimilarity(diff) > 0.5

    def test_lexical_single_sample(self):
        assert lexical_dissimilarity([gen("abc")]) == 0.0

    def test_all_baselines_keys(self):
        scores = all_baselines([gen("sales rose 20%")])
        assert set(scores) == {
            "predictive_entropy", "length_normalized_entropy",
            "lexical_dissimilarity", "answer_length",
        }

    def test_empty_rejected(self):
        with pytest.raises(EntropyError):
            predictive_entropy([])


class TestCalibration:
    def test_auroc_perfect(self):
        scores = [0.1, 0.2, 0.9, 0.8]
        errors = [False, False, True, True]
        assert auroc(scores, errors) == 1.0

    def test_auroc_inverted(self):
        scores = [0.9, 0.8, 0.1, 0.2]
        errors = [False, False, True, True]
        assert auroc(scores, errors) == 0.0

    def test_auroc_ties(self):
        assert auroc([0.5, 0.5], [True, False]) == 0.5

    def test_auroc_degenerate(self):
        assert auroc([0.5, 0.7], [False, False]) == 0.5

    def test_auroc_mismatch(self):
        with pytest.raises(EntropyError):
            auroc([0.5], [True, False])

    def test_accuracy_at_coverage(self):
        scores = [0.1, 0.9]
        errors = [False, True]
        assert accuracy_at_coverage(scores, errors, 0.5) == 1.0
        assert accuracy_at_coverage(scores, errors, 1.0) == 0.5
        with pytest.raises(EntropyError):
            accuracy_at_coverage(scores, errors, 0.0)

    def test_compare_methods(self):
        errors = [False, True]
        out = compare_methods(
            {"good": [0.1, 0.9], "bad": [0.9, 0.1]}, errors
        )
        assert out["good"] == 1.0 and out["bad"] == 0.0


class TestEndToEndEntropy:
    """Semantic entropy on actual SLM samples: the E3 mechanism."""

    def test_confident_question_lower_entropy(self):
        slm = SmallLanguageModel(SLMConfig(seed=0), meter=CostMeter())
        estimator = SemanticEntropyEstimator(judge=slm.judge)
        strong_ctx = ["Q2 sales of the Alpha Widget increased 20%."]
        gens_strong = slm.sample_answers(
            "How much did Alpha Widget sales increase?", strong_ctx,
            n_samples=8, temperature=0.7, seed=1,
        )
        gens_weak = slm.sample_answers(
            "How much did unrelated metrics shift?", [],
            n_samples=8, temperature=0.7, seed=1,
        )
        strong = estimator.estimate(gens_strong)
        weak = estimator.estimate(gens_weak)
        assert strong.entropy < weak.entropy
