"""A caching proxy over any retriever (the serving retrieval tier).

Wraps a :class:`~repro.retrieval.base.Retriever` duck-type so repeated
``retrieve(query, k)`` calls across a served workload hit a shared
generation-stamped LRU instead of re-running graph traversal and
scoring. Installed through
:meth:`~repro.qa.pipeline.HybridQAPipeline.set_retriever_wrapper`, so
it survives retriever rebuilds and composes with the resilience
layer's :class:`~repro.resilience.ResilientBackend` proxy in either
stacking order.

Chaos safety: the wrapper takes a *fault witness* — a callable
returning the injector's audit-log length — and refuses to cache any
result whose computation overlapped an injected fault. A corrupted or
partially-failed retrieval can be *returned* (the resilience layer
owns that contract) but never *remembered*.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from ..caching import CostAwareLRU
from ..metering import CostMeter
from ..resilience import work_now
from .cache import RETRIEVAL_DEPS, Generations


class CachingRetriever:
    """Duck-typed retriever proxy backed by a shared LRU.

    Unlisted attributes forward to the wrapped retriever, so the proxy
    drops into every call site (`TextQAEngine`, pipeline explain/
    entropy paths) that duck-types the original.
    """

    def __init__(self, inner: Any, cache: CostAwareLRU,
                 generations: Generations, meter: CostMeter,
                 fault_witness: Optional[Callable[[], int]] = None,
                 scope: Optional[Callable[[], str]] = None):
        self._inner = inner
        self._cache = cache
        self._generations = generations
        self._meter = meter
        self._fault_witness = fault_witness
        self._scope = scope

    def _key(self, query: str, k: int) -> Tuple[str, str, str, int]:
        # The scope provider names the tenant the current request runs
        # under; entries from different tenants never share a key, so
        # the retrieval tier is provably isolation-safe by keying alone.
        scope = self._scope() if self._scope is not None else ""
        return (getattr(self._inner, "name", "retriever"), scope,
                query, k)

    def retrieve(self, query: str, k: int = 5) -> List[Any]:
        """Cached retrieval; byte-identical to the wrapped retriever.

        Hits return a fresh list over the cached (immutable) chunks;
        misses run the wrapped retriever, then cache the ranking at its
        measured work cost — unless a fault fired during the call.
        """
        key = self._key(query, k)
        tag = self._generations.stamp(RETRIEVAL_DEPS)
        hit = self._cache.get(key, tag=tag)
        if hit is not None:
            return list(hit)
        faults_before = self._faults()
        started = work_now(self._meter)
        result = self._inner.retrieve(query, k)
        if self._faults() == faults_before:
            cost = max(1, work_now(self._meter) - started)
            self._cache.put(key, tuple(result), cost=cost, tag=tag)
        return result

    def _faults(self) -> int:
        if self._fault_witness is None:
            return 0
        return self._fault_witness()

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._inner, attr)

    def __repr__(self) -> str:
        return "CachingRetriever(%r)" % (self._inner,)
