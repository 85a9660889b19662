"""Unit tests for the shared cost-aware LRU primitive.

Covers eviction order, cost budgets, oversized-entry rejection, tag
invalidation, the stats counters, and the bounded token memo inside
the SLM embedder.
"""

import pytest

from repro.caching import CacheStats, CostAwareLRU
from repro.metering import CostMeter
from repro.slm.embeddings import EmbeddingModel


class TestCostAwareLRU:
    def test_put_get_roundtrip(self):
        lru = CostAwareLRU(capacity=4)
        assert lru.put("a", 1)
        assert lru.get("a") == 1
        assert lru.stats.hits == 1
        assert lru.stats.misses == 0

    def test_miss_counts_and_returns_default(self):
        lru = CostAwareLRU(capacity=4)
        assert lru.get("missing", default="nope") == "nope"
        assert lru.stats.misses == 1

    def test_lru_eviction_order(self):
        lru = CostAwareLRU(capacity=3)
        for key in "abc":
            lru.put(key, key.upper())
        lru.put("d", "D")
        assert "a" not in lru
        assert len(lru) == 3
        assert lru.stats.evictions == 1

    def test_get_promotes_recency(self):
        lru = CostAwareLRU(capacity=3)
        for key in "abc":
            lru.put(key, key.upper())
        lru.get("a")  # promote: "b" is now least recently used
        lru.put("d", "D")
        assert "a" in lru
        assert "b" not in lru

    def test_cost_budget_evicts_by_cost_not_count(self):
        lru = CostAwareLRU(capacity=10)
        lru.put("a", 1, cost=4)
        lru.put("b", 2, cost=4)
        assert lru.total_cost == 8
        lru.put("c", 3, cost=4)  # 12 > 10: evict "a"
        assert "a" not in lru
        assert lru.total_cost == 8
        assert lru.stats.evictions == 1

    def test_oversized_entry_rejected_not_stored(self):
        lru = CostAwareLRU(capacity=10)
        lru.put("small", 1, cost=2)
        assert not lru.put("huge", 2, cost=11)
        assert "huge" not in lru
        assert "small" in lru  # rejection never flushes other entries
        assert lru.stats.rejected == 1

    def test_tag_mismatch_invalidates(self):
        lru = CostAwareLRU(capacity=4)
        lru.put("q", "answer", tag=(1, 0))
        assert lru.get("q", tag=(1, 0)) == "answer"
        assert lru.get("q", tag=(2, 0)) is None
        assert lru.stats.invalidations == 1
        assert "q" not in lru  # the stale entry was dropped
        assert lru.get("q", tag=(2, 0)) is None  # plain miss now
        assert lru.stats.invalidations == 1

    def test_reput_replaces_cost(self):
        lru = CostAwareLRU(capacity=10)
        lru.put("a", 1, cost=6)
        lru.put("a", 2, cost=3)
        assert lru.total_cost == 3
        assert lru.get("a") == 2

    def test_invalidate_and_clear(self):
        lru = CostAwareLRU(capacity=8)
        for key in "abc":
            lru.put(key, key)
        assert lru.invalidate("a")
        assert not lru.invalidate("a")
        assert lru.clear() == 2
        assert len(lru) == 0
        assert lru.total_cost == 0
        assert lru.stats.invalidations == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            CostAwareLRU(capacity=0)
        lru = CostAwareLRU(capacity=4)
        with pytest.raises(ValueError):
            lru.put("a", 1, cost=-1)

    def test_stats_snapshot_and_hit_rate(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.hit_rate == pytest.approx(0.75)
        assert CacheStats().hit_rate == 0.0
        assert list(stats.snapshot()) == [
            "hits", "misses", "evictions", "invalidations", "rejected",
        ]

    def test_on_evict_callback(self):
        evicted = []
        lru = CostAwareLRU(capacity=2,
                           on_evict=lambda k, v: evicted.append((k, v)))
        lru.put("a", 1)
        lru.put("b", 2)
        lru.put("c", 3)
        assert evicted == [("a", 1)]


class TestEmbedderCaches:
    def test_token_cache_is_bounded(self):
        model = EmbeddingModel(dim=16, token_cache_size=8,
                               meter=CostMeter())
        for i in range(30):
            model.embed("uniquetoken%d" % i)
        cache = model._token_cache  # noqa: SLF001
        assert len(cache) <= 8
        assert cache.stats.evictions > 0
