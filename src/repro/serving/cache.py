"""Multi-tier caching for the query-serving subsystem.

Three tiers, each a :class:`~repro.caching.CostAwareLRU` sized in
CostMeter work units, each checked against the store versions its
entries were made at:

* **answer tier** — whole :class:`~repro.qa.answer.Answer` values
  keyed by the normalized question, stored and served without a copy
  (answers are frozen); depends on what its computation read: the text
  value, the schema value and the row-write counter of every table its
  SELECTs read;
* **plan tier** — synthesized SemQL logical plans keyed by question,
  injected into :class:`~repro.qa.tableqa.TableQAEngine`; depends on
  the schema value only (a plan reads the catalog, never a row);
* **retrieval tier** — ranked chunk lists keyed by
  ``(retriever, query, k)`` (see :mod:`.retrieval`); depends on the
  text value.

Nothing pushes an invalidation. Every store keeps a monotone
``version`` and the pipeline one that moves on each build and ingest;
:class:`Generations` reads them when a tier checks an entry, so no tier
ever serves a value computed against superseded data. Plan and
retrieval entries carry the stamp of their dependency set as their LRU
tag; a mismatch drops the entry. An answer entry carries the write
clock it was last checked at, plus its read set: at an unchanged clock
it is valid with one comparison, and after a write it survives — and
takes the new clock — when no value of its read set moved. A document
write or a row write into a table the answer did not read therefore
keeps it.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple

from ..caching import CostAwareLRU

#: The text store: moved by every text write and every rebuild.
KIND_TEXT = "text"

#: The relational catalog: moved by CREATE/DROP TABLE and every
#: rebuild (which also rebuilds the value index).
KIND_SCHEMA = "schema"

#: Dependency sets: which values invalidate which tier. An answer
#: also depends on the row-write counters of the tables it read.
ANSWER_DEPS = (KIND_TEXT, KIND_SCHEMA)
PLAN_DEPS = (KIND_SCHEMA,)
RETRIEVAL_DEPS = (KIND_TEXT,)

#: Entry bounds of the three tiers.
ANSWER_CAPACITY = 65536
PLAN_CAPACITY = 4096
RETRIEVAL_CAPACITY = 16384


class Generations:
    """The serving layer's whole invalidation protocol, read from the
    versions of one pipeline and of its real stores (behind any
    resilience proxy).

    Each dependency kind's value is its store's version plus the
    pipeline's, so a rebuild moves every kind. Cache tiers stamp
    entries with :meth:`stamp` over their dependency set and reject
    entries whose stamp no longer matches. :attr:`clock` moves on every
    write and rebuild, so an entry checked at the current clock needs
    no further look.
    """

    def __init__(self, pipeline: Any) -> None:
        self._pipeline = pipeline
        self._db, self._docs, self._texts = (
            getattr(store, "resilient_target", store)
            for store in (pipeline.db, pipeline.doc_store,
                          pipeline.text_store)
        )
        #: A table's row-write counter (:meth:`~repro.storage.
        #: relational.Database.row_writes`).
        self.row_writes = self._db.row_writes

    @property
    def clock(self) -> int:
        """The write clock: the sum of every version read."""
        return (self._db.version + self._docs.version
                + self._texts.version + self._pipeline.version)

    def stamp(self, kinds: Tuple[str, ...]) -> Tuple[int, ...]:
        """The current stamp over a dependency set (an LRU entry tag)."""
        versions = {KIND_TEXT: self._texts.version,
                    KIND_SCHEMA: self._db.schema_version}
        rebuilds = self._pipeline.version
        return tuple([versions[kind] + rebuilds for kind in kinds])

    def snapshot(self) -> Dict[str, int]:
        """The versions read (for stats surfaces)."""
        return {
            "relational": self._db.version,
            "schema": self._db.schema_version,
            "document": self._docs.version,
            "text": self._texts.version,
            "pipeline": self._pipeline.version,
        }


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
    hit returns that same object to every asker.
    """

    def __init__(self, generations: Generations):
        self._generations = generations
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
        """The current values of an answer that read *tables*: the
        deps :meth:`put` stores and a later lookup re-checks."""
        row_writes = self._generations.row_writes
        return (self._generations.stamp(ANSWER_DEPS),
                tuple((name, row_writes(name)) for name in sorted(tables)))

    def _still_valid(self, deps: Tuple[Any, ...]) -> bool:
        counts, tables = deps
        if self._generations.stamp(ANSWER_DEPS) != counts:
            return False
        row_writes = self._generations.row_writes
        return all(row_writes(name) == n for name, n in tables)

    def get(self, question: Any) -> Optional[Any]:
        """The cached answer itself (shared, frozen), or None.

        *question* is whatever key the server chose — since the tenancy
        refactor that is the uniform ``(tenant_id, question)`` pair, so
        two tenants asking the same words can never share an entry.
        """
        return self._lru.get(question, tag=self._generations.clock)

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
    """All enabled tiers plus the versions they share."""

    def __init__(self, policy: CachePolicy, generations: Generations):
        self.policy = policy
        self.generations = generations
        self.answers: Optional[AnswerCache] = (
            AnswerCache(generations)
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
        """Per-tier hit/miss/eviction counters plus the versions read."""
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
