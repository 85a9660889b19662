"""Multi-tier caching for the query-serving subsystem.

Three tiers, each a :class:`~repro.caching.CostAwareLRU` sized in
CostMeter work units, each invalidated write-through by generation
counters:

* **answer tier** — whole :class:`~repro.qa.answer.Answer` values
  keyed by the normalized question, stored and served without a copy
  (answers are frozen); depends on what its computation read: the text
  counter, the schema counter and the row-write counter of every table
  its SELECTs read;
* **plan tier** — synthesized SemQL logical plans keyed by question,
  injected into :class:`~repro.qa.tableqa.TableQAEngine`; depends on
  the schema counter only (a plan reads the catalog, never a row);
* **retrieval tier** — ranked chunk lists keyed by
  ``(retriever, query, k)`` (see :mod:`.retrieval`); depends on the
  text store.

Invalidation is *write-through*: store mutation listeners and pipeline
rebuild listeners bump :class:`Generations` counters, and no tier ever
serves a value computed against superseded data. Plan and retrieval
entries carry the stamp of their dependency set as their LRU tag; a
mismatch drops the entry. An answer entry carries the write clock it
was last checked at, plus its read set: at an unchanged clock it is
valid with one comparison, and after a write it survives — and takes
the new clock — when no counter of its read set moved. A document
write or a row write into a table the answer did not read therefore
keeps it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from ..caching import CostAwareLRU

KIND_RELATIONAL = "relational"
KIND_DOCUMENT = "document"
KIND_TEXT = "text"

#: Every store kind a generation counter tracks.
STORE_KINDS = (KIND_RELATIONAL, KIND_DOCUMENT, KIND_TEXT)

#: The relational catalog: bumped by CREATE/DROP TABLE and every
#: rebuild (which also rebuilds the value index).
KIND_SCHEMA = "schema"

#: Dependency sets: which counters invalidate which tier. An answer
#: also depends on the row-write counters of the tables it read.
ANSWER_DEPS = (KIND_TEXT, KIND_SCHEMA)
PLAN_DEPS = (KIND_SCHEMA,)
RETRIEVAL_DEPS = (KIND_TEXT,)

#: Entry bounds of the three tiers.
ANSWER_CAPACITY = 65536
PLAN_CAPACITY = 4096
RETRIEVAL_CAPACITY = 16384


class Generations:
    """Monotone generation counters plus one write clock.

    The serving layer's whole invalidation protocol: writers bump, cache
    tiers stamp entries with :meth:`stamp` over their dependency set and
    reject entries whose stamp no longer matches. :attr:`clock` moves
    on every bump, so an entry checked at the current clock needs no
    further look.
    """

    def __init__(self) -> None:
        self._counts: Dict[str, int] = dict.fromkeys(
            (*STORE_KINDS, KIND_SCHEMA), 0)
        self.clock = 0

    def bump(self, kind: str) -> None:
        """Record one mutation of *kind* (invalidates dependent tiers)."""
        if kind not in self._counts:
            raise ValueError("unknown store kind %r" % kind)
        self._counts[kind] += 1
        self.clock += 1

    def bump_all(self) -> None:
        """Record a full rebuild (invalidates every tier)."""
        for kind in self._counts:
            self._counts[kind] += 1
        self.clock += 1

    def stamp(self, kinds: Tuple[str, ...]) -> Tuple[int, ...]:
        """The current stamp over a dependency set (an LRU entry tag)."""
        return tuple(self._counts[kind] for kind in kinds)

    def snapshot(self) -> Dict[str, int]:
        """Current counter values (for stats surfaces)."""
        return dict(self._counts)


class PlanCache:
    """Plan signature → synthesized logical plan, generation tagged.

    Duck-types the hook :meth:`~repro.qa.tableqa.TableQAEngine.
    set_plan_cache` expects. Keys are whatever the engine passes —
    since the federated-plan refactor that is the canonical
    :meth:`~repro.qa.plan.FederatedPlan.signature` tuple (question,
    route, stage DAG) rather than a per-tier munged string; callers
    outside the executor may still key by raw question. Every entry
    costs one work unit: synthesis charges nothing to the meter, so a
    measured cost would always be that floor. A miss keeps no state —
    one that never reaches ``put`` (synthesis abstained, tenancy
    blocked the plan) leaves nothing behind.
    """

    def __init__(self, generations: Generations):
        self._generations = generations
        self._lru = CostAwareLRU(capacity=PLAN_CAPACITY,
                                 name="serving.plans")

    @property
    def lru(self) -> CostAwareLRU:
        """The backing LRU (stats and tests)."""
        return self._lru

    def get(self, key: Any) -> Optional[Any]:
        """The cached plan under *key*, or None on miss/staleness."""
        return self._lru.get(key, tag=self._generations.stamp(PLAN_DEPS))

    def put(self, key: Any, spec: Any) -> None:
        """Store a freshly synthesized plan (one work unit)."""
        self._lru.put(key, spec, tag=self._generations.stamp(PLAN_DEPS))


class AnswerCache:
    """Normalized question → finished Answer, read-set tagged.

    An :class:`~repro.qa.answer.Answer` is frozen, so no caller can
    poison a cached entry: ``put`` stores the object it is given and a
    hit returns that same object to every asker. *row_writes* reads a
    table's row-write counter (:meth:`~repro.storage.relational.
    Database.row_writes`).
    """

    def __init__(self, generations: Generations,
                 row_writes: Callable[[str], int]):
        self._generations = generations
        self._row_writes = row_writes
        self._lru = CostAwareLRU(capacity=ANSWER_CAPACITY,
                                 name="serving.answers",
                                 revalidate=self._still_valid)

    @property
    def lru(self) -> CostAwareLRU:
        """The backing LRU (stats and tests)."""
        return self._lru

    def stamp(self) -> int:
        """The current answer-tier generation stamp: the write clock."""
        return self._generations.clock

    def read_set(self, tables: Iterable[str]) -> Tuple[Any, ...]:
        """The current counters of an answer that read *tables*: the
        deps :meth:`put` stores and a later lookup re-checks."""
        row_writes = self._row_writes
        return (self._generations.stamp(ANSWER_DEPS),
                tuple((name, row_writes(name)) for name in sorted(tables)))

    def _still_valid(self, deps: Tuple[Any, ...]) -> bool:
        counts, tables = deps
        if self._generations.stamp(ANSWER_DEPS) != counts:
            return False
        row_writes = self._row_writes
        return all(row_writes(name) == n for name, n in tables)

    def get(self, question: Any) -> Optional[Any]:
        """The cached answer itself (shared, frozen), or None.

        *question* is whatever key the server chose — since the tenancy
        refactor that is the uniform ``(tenant_id, question)`` pair, so
        two tenants asking the same words can never share an entry.
        """
        return self._lru.get(question, tag=self.stamp())

    def put(self, question: Any, answer: Any, cost: int,
            tag: Any, deps: Any = None) -> None:
        """Store *answer* under the stamp its computation started from.

        Callers pass the stamp captured *before* answering: if a write
        raced the computation the stamp already moved on, and the next
        ``get`` drops the entry instead of serving a stale answer.
        Callers also pass the answer's :meth:`read_set`.
        """
        self._lru.put(question, answer, cost=max(1, cost), tag=tag,
                      deps=deps)


class CachePolicy:
    """Which tiers a :class:`~repro.serving.server.QueryServer` enables.

    Parsed from the CLI's ``--cache-policy``: ``none``, ``full``, or a
    comma list drawn from ``answer``, ``plan``, ``retrieval`` (e.g.
    ``plan,retrieval``).
    """

    TIERS = ("answer", "plan", "retrieval")

    def __init__(self, answer: bool = True, plan: bool = True,
                 retrieval: bool = True):
        self.answer = answer
        self.plan = plan
        self.retrieval = retrieval

    @classmethod
    def none(cls) -> "CachePolicy":
        """Every tier disabled (the uncached reference configuration)."""
        return cls(answer=False, plan=False, retrieval=False)

    @classmethod
    def from_string(cls, text: str) -> "CachePolicy":
        """Parse a ``--cache-policy`` value.

        >>> CachePolicy.from_string("plan,retrieval").answer
        False
        """
        text = (text or "full").strip().lower()
        if text == "full":
            return cls()
        if text == "none":
            return cls.none()
        wanted = {part.strip() for part in text.split(",") if part.strip()}
        unknown = wanted - set(cls.TIERS)
        if unknown:
            raise ValueError(
                "unknown cache tier(s) %s; expected 'none', 'full' or a "
                "comma list of %s" % (sorted(unknown), ", ".join(cls.TIERS))
            )
        return cls(answer="answer" in wanted, plan="plan" in wanted,
                   retrieval="retrieval" in wanted)

    def describe(self) -> str:
        """Canonical string form ('none' / 'full' / comma list)."""
        on = [tier for tier in self.TIERS if getattr(self, tier)]
        if len(on) == len(self.TIERS):
            return "full"
        return ",".join(on) or "none"


class MultiTierCache:
    """All enabled tiers plus their shared generation counters."""

    def __init__(self, policy: CachePolicy, generations: Generations,
                 row_writes: Callable[[str], int]):
        self.policy = policy
        self.generations = generations
        self.answers: Optional[AnswerCache] = (
            AnswerCache(generations, row_writes)
            if policy.answer else None
        )
        self.plans: Optional[PlanCache] = (
            PlanCache(generations)
            if policy.plan else None
        )
        self.retrieval: Optional[CostAwareLRU] = (
            CostAwareLRU(capacity=RETRIEVAL_CAPACITY,
                         name="serving.retrieval")
            if policy.retrieval else None
        )

    def stats(self) -> Dict[str, Any]:
        """Per-tier hit/miss/eviction counters plus generation counts."""
        out: Dict[str, Any] = {
            "policy": self.policy.describe(),
            "generations": self.generations.snapshot(),
        }
        if self.answers is not None:
            out["answer"] = self.answers.lru.stats.snapshot()
        if self.plans is not None:
            out["plan"] = self.plans.lru.stats.snapshot()
        if self.retrieval is not None:
            out["retrieval"] = self.retrieval.stats.snapshot()
        return out
