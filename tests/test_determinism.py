"""Determinism guards: same seeds → identical results, end to end.

DESIGN.md §5 promises full reproducibility; these tests pin it so a
refactor introducing hidden global randomness fails loudly.
"""

import pytest

from repro.bench import LakeSpec, generate_ecommerce_lake
from repro.bench.runner import build_hybrid_system, run_qa_suite
from repro.entropy import SemanticEntropyEstimator
from repro.graphindex import graph_to_json
from repro.metering import CostMeter
from repro.obs import Tracer
from repro.slm import SLMConfig, SmallLanguageModel
from repro.text.ner import Gazetteer


def build_once(seed=41):
    lake = generate_ecommerce_lake(LakeSpec(n_products=5, seed=seed))
    system, pipeline = build_hybrid_system(lake, seed=0)
    return lake, system, pipeline


class TestDeterminism:
    def test_lake_identical_across_runs(self):
        a = generate_ecommerce_lake(LakeSpec(n_products=5, seed=41))
        b = generate_ecommerce_lake(LakeSpec(n_products=5, seed=41))
        assert a.review_texts == b.review_texts
        assert a.sales == b.sales
        assert [f.gold_record() for f in a.satisfaction_facts] == \
            [f.gold_record() for f in b.satisfaction_facts]

    def test_graph_identical_across_builds(self):
        _, _, p1 = build_once()
        _, _, p2 = build_once()
        assert graph_to_json(p1.graph) == graph_to_json(p2.graph)

    def test_suite_accuracy_identical(self):
        lake1, system1, _ = build_once()
        lake2, system2, _ = build_once()
        pairs1 = lake1.qa_pairs(per_kind=3)
        pairs2 = lake2.qa_pairs(per_kind=3)
        assert [p.question for p in pairs1] == \
            [p.question for p in pairs2]
        r1 = run_qa_suite(system1, pairs1)
        r2 = run_qa_suite(system2, pairs2)
        assert r1.per_kind_accuracy == r2.per_kind_accuracy

    def test_sampled_answers_identical_with_seed(self):
        gazetteer = Gazetteer()
        gazetteer.add("VALUE", ["Alpha Widget"])
        contexts = ["Satisfaction with the Alpha Widget rose 9% in "
                    "Q1 2024."]

        def sample():
            slm = SmallLanguageModel(SLMConfig(seed=0),
                                     gazetteer=gazetteer,
                                     meter=CostMeter())
            return [g.text for g in slm.sample_answers(
                "How much did satisfaction with the Alpha Widget "
                "change?", contexts, n_samples=6, seed=5,
            )]

        assert sample() == sample()

    def test_entropy_identical_with_seed(self):
        gazetteer = Gazetteer()
        gazetteer.add("VALUE", ["Alpha Widget"])

        def estimate():
            slm = SmallLanguageModel(SLMConfig(seed=0),
                                     gazetteer=gazetteer,
                                     meter=CostMeter())
            samples = slm.sample_answers(
                "How much did sales change?", [], n_samples=6, seed=9,
            )
            est = SemanticEntropyEstimator(judge=slm.judge)
            return est.estimate(samples).entropy

        assert estimate() == pytest.approx(estimate())


class TestNoObserverEffect:
    """Tracing is passive: traced and untraced runs answer identically."""

    def test_answer_identical_traced_vs_untraced(self):
        lake, system, _ = build_once()
        pairs = lake.qa_pairs(per_kind=2)
        untraced = [
            system.answer(p.question).fingerprint() for p in pairs
        ]
        _, traced_system, traced_pipeline = build_once()
        tracer = Tracer(meter=traced_pipeline.meter)
        with tracer.activate():
            traced = [
                traced_system.answer(p.question).fingerprint()
                for p in pairs
            ]
        assert traced == untraced
        assert tracer.roots, "tracer recorded nothing"

    def test_uncertainty_identical_traced_vs_untraced(self):
        lake, _, pipeline = build_once()
        question = lake.qa_pairs(per_kind=1)[0].question
        answer, estimate = pipeline.answer_with_uncertainty(
            question, seed=3
        )
        _, _, traced_pipeline = build_once()
        tracer = Tracer(meter=traced_pipeline.meter)
        with tracer.activate():
            traced_answer, traced_estimate = \
                traced_pipeline.answer_with_uncertainty(question, seed=3)
        assert traced_answer.fingerprint() == \
            answer.fingerprint()
        if estimate is None:
            assert traced_estimate is None
        else:
            assert traced_estimate.entropy == pytest.approx(
                estimate.entropy
            )
            assert traced_estimate.n_clusters == estimate.n_clusters
