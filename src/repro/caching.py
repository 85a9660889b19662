"""Cost-aware LRU caching primitive shared across the library.

One bounded-cache implementation serves every reuse point in the
system: the serving layer's answer/plan/retrieval tiers and the SLM
encoder's token-vector memo all size their budgets in the same
currency — :class:`~repro.metering.CostMeter` work units — so "how
much cache" and "how much work" are directly comparable numbers.

The cache is deliberately deterministic: eviction order depends only
on the sequence of ``get``/``put`` calls, never on wall time, object
ids or hash randomization (keys are compared by equality and kept in
insertion/recency order via :class:`collections.OrderedDict`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Iterator, Optional, Tuple


@dataclass
class CacheStats:
    """Monotone counters describing one cache's lifetime behaviour."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    rejected: int = 0  # entries too costly to ever fit

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict copy (stable key order for reports)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "rejected": self.rejected,
        }

    @property
    def hit_rate(self) -> float:
        """hits / (hits + misses), 0.0 before any lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class _Entry:
    value: Any
    cost: int = 1
    tag: Any = None


@dataclass
class CostAwareLRU:
    """A bounded LRU cache whose capacity is a *cost* budget.

    Every entry carries a non-negative integer cost (default 1 — a
    plain entry-count LRU). When the summed cost of stored entries
    exceeds ``capacity``, least-recently-used entries are evicted
    until the budget holds again. An entry whose own cost exceeds the
    whole capacity is rejected outright (counted in
    ``stats.rejected``) instead of flushing everything else.

    Entries may carry an opaque ``tag`` (the serving layer stores
    generation stamps there); :meth:`get` returns ``default`` — and
    drops the stale entry — when the caller's ``tag`` no longer
    matches, counting an invalidation.
    """

    capacity: int = 1024
    name: str = "lru"
    on_evict: Optional[Callable[[Hashable, Any], None]] = None
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._entries: "OrderedDict[Hashable, _Entry]" = OrderedDict()
        self._total_cost = 0

    # ------------------------------------------------------------------
    def get(self, key: Hashable, default: Any = None,
            tag: Any = None) -> Any:
        """Fetch *key*, promoting it to most-recently-used.

        With a *tag*, the stored entry must carry an equal tag; a
        mismatch behaves like a miss, removes the stale entry and
        counts one invalidation.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return default
        if tag is not None and entry.tag != tag:
            self._remove(key, entry)
            self.stats.invalidations += 1
            self.stats.misses += 1
            return default
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry.value

    def put(self, key: Hashable, value: Any, cost: int = 1,
            tag: Any = None) -> bool:
        """Store *key* → *value* at *cost* work units; True if stored."""
        if cost < 0:
            raise ValueError("cost must be non-negative")
        old = self._entries.get(key)
        if old is not None:
            self._remove(key, old)
        if cost > self.capacity:
            self.stats.rejected += 1
            return False
        self._entries[key] = _Entry(value=value, cost=cost, tag=tag)
        self._total_cost += cost
        while self._total_cost > self.capacity and len(self._entries) > 1:
            evicted_key, evicted = self._entries.popitem(last=False)
            self._total_cost -= evicted.cost
            self.stats.evictions += 1
            if self.on_evict is not None:
                self.on_evict(evicted_key, evicted.value)
        return True

    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry; True when it existed."""
        entry = self._entries.get(key)
        if entry is None:
            return False
        self._remove(key, entry)
        self.stats.invalidations += 1
        return True

    def clear(self, count_invalidations: bool = True) -> int:
        """Drop every entry, returning how many were held."""
        dropped = len(self._entries)
        self._entries.clear()
        self._total_cost = 0
        if count_invalidations:
            self.stats.invalidations += dropped
        return dropped

    def _remove(self, key: Hashable, entry: _Entry) -> None:
        del self._entries[key]
        self._total_cost -= entry.cost

    # ------------------------------------------------------------------
    @property
    def total_cost(self) -> int:
        """Summed cost of the stored entries."""
        return self._total_cost

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def keys(self) -> Iterator[Hashable]:
        """Stored keys, least- to most-recently used."""
        return iter(self._entries.keys())

    def items(self) -> Iterator[Tuple[Hashable, Any]]:
        """(key, value) pairs, least- to most-recently used."""
        return ((k, e.value) for k, e in self._entries.items())
