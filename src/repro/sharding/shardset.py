"""The shard set: routing, guards, stats and wiring for one pipeline.

One :class:`ShardSet` owns everything the partitioned store facades
share — the seeded :class:`~.router.ShardRouter`, the per-shard
resilience guard discipline, scatter/prune statistics, write
notifications for the serving layer's per-shard cache invalidation,
and the read-touch accumulator the answer cache uses to restrict an
entry's dependency closure to the shards it actually read.

Per-shard guard discipline
--------------------------
Every shard call runs as ``manager.attempt("shard:<i>", op, fn)``
inside ``manager.arm("shard:<i>", cap=budget // n_shards)``:

* the ``shard:<i>`` namespace gives each shard its own circuit breaker
  and its own deterministic fault stream (a fault plan that names only
  ``relational``/``document``/... draws nothing for shard backends, so
  sharded answers stay byte-identical to unsharded under those plans);
* the arm cap is a share-of-budget rescue reserve on the CostMeter
  work clock — it binds only after a *witnessed* shard fault, and the
  call joins any already-open speculative arm instead of re-arming;
* legitimate data errors (missing row/document) are shielded from the
  shard breaker: only injected/infra faults feed breaker state, so a
  routine miss can never open a shard's circuit.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..errors import ReproError
from .router import ShardRouter


class ShardStats:
    """Scatter/prune counters for one shard set (local, not process-wide)."""

    def __init__(self) -> None:
        self.fanout_calls = 0
        self.pruned_calls = 0
        self.shard_calls = 0

    def snapshot(self) -> Dict[str, int]:
        """JSON-ready counter values."""
        return {
            "fanout_calls": self.fanout_calls,
            "pruned_calls": self.pruned_calls,
            "shard_calls": self.shard_calls,
        }


class ShardSet:
    """Shared routing + guard + accounting state for one pipeline's shards.

    *manager* is the pipeline's resilience manager (``None``: shard
    calls always run bare).
    """

    def __init__(self, n_shards: int, seed: int = 0,
                 manager: Optional[Any] = None):
        self.router = ShardRouter(n_shards, seed=seed)
        self.stats = ShardStats()
        self._manager = manager
        self._write_listeners: List[Callable[[str, Optional[int]], None]] = []
        self._touched: Set[Tuple[str, int]] = set()

    @property
    def n_shards(self) -> int:
        """How many shards this set routes over."""
        return self.router.n_shards

    # ------------------------------------------------------------------
    # Guarded dispatch
    # ------------------------------------------------------------------
    def guarded(self, shard: int, op: str,
                fn: Callable[[], Any]) -> Any:
        """Run one shard call under its ``shard:<i>`` resilience guard."""
        manager = self._manager
        if manager is None or not manager.in_question():
            # Outside a question scope (build, ingest, rebuild) shard
            # calls run bare: the resilience contract only degrades the
            # answer path, so nothing may draw faults here.
            return fn()
        backend = "shard:%d" % shard
        with manager.arm(backend, cap=self._arm_cap(manager)):
            error, value = manager.attempt(backend, op,
                                           lambda: _shielded(fn))
        if error is not None:
            raise error
        return value

    def _arm_cap(self, manager: Any) -> Optional[int]:
        limit = manager.config.budget
        if not limit:  # unbounded (None) or an immediate deadline (0)
            return None
        return max(1, limit // self.n_shards)

    # ------------------------------------------------------------------
    # Scatter / prune accounting
    # ------------------------------------------------------------------
    def note_fanout(self, kind: str, shards: int) -> None:
        """Record one dispatch that consulted *shards* shards."""
        self.stats.shard_calls += shards
        if shards <= 1:
            self.stats.pruned_calls += 1
        else:
            self.stats.fanout_calls += 1

    def note_touch(self, kind: str,
                   shards: Optional[List[int]] = None) -> None:
        """Record which shards of *kind* a read consulted.

        ``None`` means "all shards" (an unpruned scatter); the serving
        layer folds these into the answer-cache dependency closure.
        """
        if shards is None:
            for index in range(self.n_shards):
                self._touched.add((kind, index))
        else:
            for index in shards:
                self._touched.add((kind, index))

    def reset_touched(self) -> None:
        """Clear the read-touch accumulator (start of one answer)."""
        self._touched.clear()

    def touched(self) -> Set[Tuple[str, int]]:
        """The (kind, shard) pairs read since :meth:`reset_touched`."""
        return set(self._touched)

    # ------------------------------------------------------------------
    # Write notification (serving invalidation)
    # ------------------------------------------------------------------
    def add_write_listener(
        self, listener: Callable[[str, Optional[int]], None],
    ) -> None:
        """Subscribe ``listener(kind, shard_or_None)`` to shard writes."""
        self._write_listeners.append(listener)

    def note_write(self, kind: str, shard: Optional[int]) -> None:
        """Record one write into *shard* (``None`` = unattributable)."""
        for listener in self._write_listeners:
            listener(kind, shard)

    # ------------------------------------------------------------------
    # The committed shard map
    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, Any]:
        """JSON-ready routing description (committed beside the catalog)."""
        return dict(self.router.describe())


def _shielded(fn: Callable[[], Any]) -> Tuple[Optional[Exception], Any]:
    """Run *fn*, boxing legit data errors away from the shard breaker.

    Injected shard faults raise inside the guard *before* ``fn`` runs
    and feed the breaker as designed; an error raised by ``fn`` itself
    (missing row, unknown document) is the same answer the unsharded
    store would give and must not poison shard circuit state.
    """
    try:
        return None, fn()
    except ReproError as exc:
        return exc, None


def shard_of_doc(router: ShardRouter, doc_id: str) -> int:
    """The shard owning a document (and all chunks derived from it)."""
    return router.shard_of(doc_id)


def shard_of_chunk(router: ShardRouter, chunk_id: str) -> int:
    """The shard owning one chunk — chunks follow their document.

    Chunk ids are ``"<doc_id>#<position>"`` (see
    :mod:`repro.text.chunker`), so ownership derives from the prefix.
    """
    return router.shard_of(chunk_id.rsplit("#", 1)[0])
