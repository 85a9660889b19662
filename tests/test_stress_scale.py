"""Scale smoke tests: larger lakes flow end to end without blowups.

No timing assertions (CI machines vary); these catch accidental
quadratic behaviour by simply being runnable, and verify correctness
holds at size.
"""

import pytest

from repro.bench import LakeSpec, generate_ecommerce_lake
from repro.bench.runner import build_hybrid_system
from tests.conftest import matches_number


@pytest.fixture(scope="module")
def big():
    lake = generate_ecommerce_lake(
        LakeSpec(n_products=40, seed=77, n_filler_docs=10)
    )
    system, pipeline = build_hybrid_system(lake)
    return lake, system, pipeline


class TestScale:
    def test_lake_size(self, big):
        lake, _, pipeline = big
        assert len(lake.review_texts) == 170  # 40×4 reviews + 10 filler
        assert pipeline.text_store.n_chunks >= 170

    def test_graph_connected_enough(self, big):
        _, _, pipeline = big
        stats = pipeline.graph.stats()
        assert stats["n_entities"] >= 40
        # Reviews + records share product entities: few components.
        assert stats["n_components"] < stats["n_nodes"] / 10

    def test_structured_accuracy_holds(self, big):
        lake, system, _ = big
        pairs = [p for p in lake.qa_pairs(per_kind=6)
                 if p.kind.startswith("structured")]
        correct = sum(
            1 for p in pairs if p.is_correct(system.answer(p.question))
        )
        assert correct == len(pairs)

    def test_cross_modal_accuracy_holds(self, big):
        lake, system, _ = big
        pairs = [p for p in lake.qa_pairs(per_kind=4)
                 if p.kind == "cross_modal_multi_entity"]
        correct = sum(
            1 for p in pairs if p.is_correct(system.answer(p.question))
        )
        assert correct >= len(pairs) - 1

    def test_multi_value_conjunctive_filters(self, big):
        lake, system, pipeline = big
        # Two value hits on different columns of one table.
        product = lake.products[0]
        answer = pipeline.answer(
            "How many sales records are there for the %s in Q2?"
            % product["name"]
        )
        gold = sum(
            1 for row in lake.sales
            if row["pid"] == product["pid"] and row["quarter"] == "Q2"
        )
        assert matches_number(answer, float(gold))
