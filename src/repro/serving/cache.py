"""Multi-tier caching for the query-serving subsystem.

Four tiers, each a :class:`~repro.caching.CostAwareLRU` sized in
CostMeter work units, each invalidated write-through by generation
stamps:

* **answer tier** — whole :class:`~repro.qa.answer.Answer` values
  keyed by the normalized question, stored and served without a copy
  (answers are frozen); depends on every store kind;
* **plan tier** — synthesized SemQL logical plans keyed by question,
  injected into :class:`~repro.qa.tableqa.TableQAEngine`; depends on
  the relational store only (text ingests must not flush plans);
* **retrieval tier** — ranked chunk lists keyed by
  ``(retriever, query, k)`` (see :mod:`.retrieval`); depends on the
  text and graph kinds;
* **embedding memo** — the bounded whole-text memo living inside
  :class:`~repro.slm.embeddings.EmbeddingModel`; embeddings are pure
  functions of their text, so this tier depends on nothing.

Invalidation is *write-through*: store mutation listeners and pipeline
rebuild listeners bump :class:`Generations` counters, and every cache
entry carries the generation stamp of its dependency set as its LRU
tag. A stamp mismatch at lookup time atomically drops the entry — no
tier ever serves a value computed against superseded data.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from ..caching import CostAwareLRU
from ..metering import CostMeter
from ..obs import incr
from ..resilience import work_now
from ..sharding import ShardStamp

KIND_RELATIONAL = "relational"
KIND_DOCUMENT = "document"
KIND_TEXT = "text"
KIND_GRAPH = "graph"

#: Every store kind a generation counter tracks.
STORE_KINDS = (KIND_RELATIONAL, KIND_DOCUMENT, KIND_TEXT, KIND_GRAPH)

#: Dependency sets: which kinds invalidate which tier.
ANSWER_DEPS = STORE_KINDS
PLAN_DEPS = (KIND_RELATIONAL,)
RETRIEVAL_DEPS = (KIND_TEXT, KIND_GRAPH)

#: Entry bounds of the four tiers.
ANSWER_CAPACITY = 65536
PLAN_CAPACITY = 4096
RETRIEVAL_CAPACITY = 16384
EMBEDDING_CAPACITY = 2048


class Generations:
    """Monotone per-store-kind generation counters.

    The serving layer's whole invalidation protocol: writers bump, cache
    tiers stamp entries with :meth:`stamp` over their dependency set and
    reject entries whose stamp no longer matches.
    """

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {kind: 0 for kind in STORE_KINDS}

    def register(self, kind: str) -> None:
        """Track an additional kind (e.g. a per-shard counter).

        Registered kinds participate in :meth:`bump_all` and appear in
        snapshots; registering an existing kind is a no-op, so counters
        survive re-wiring.
        """
        self._counts.setdefault(kind, 0)

    def bump(self, kind: str) -> None:
        """Record one mutation of *kind* (invalidates dependent tiers)."""
        if kind not in self._counts:
            raise ValueError("unknown store kind %r" % kind)
        self._counts[kind] += 1
        incr("serving.generation.bump")

    def bump_all(self) -> None:
        """Record a full rebuild (invalidates every tier)."""
        for kind in self._counts:
            self._counts[kind] += 1
        incr("serving.generation.bump_all")

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
    outside the executor may still key by raw question. Entry cost is
    measured, not guessed: a miss snapshots the work clock, and the
    matching ``put`` charges the entry with the work synthesis actually
    spent — so the LRU budget is denominated in real CostMeter units.
    """

    def __init__(self, generations: Generations, meter: CostMeter):
        self._generations = generations
        self._meter = meter
        self._lru = CostAwareLRU(capacity=PLAN_CAPACITY,
                                 name="serving.plans")
        self._pending: Dict[Any, int] = {}

    @property
    def lru(self) -> CostAwareLRU:
        """The backing LRU (stats and tests)."""
        return self._lru

    def get(self, key: Any) -> Optional[Any]:
        """The cached plan under *key*, or None on miss/staleness."""
        tag = self._generations.stamp(PLAN_DEPS)
        spec = self._lru.get(key, tag=tag)
        if spec is not None:
            incr("serving.cache.plan.hit")
            return spec
        incr("serving.cache.plan.miss")
        self._pending[key] = work_now(self._meter)
        return None

    def put(self, key: Any, spec: Any) -> None:
        """Store a freshly synthesized plan at its measured work cost."""
        started = self._pending.pop(key, None)
        cost = 1
        if started is not None:
            cost = max(1, work_now(self._meter) - started)
        self._lru.put(key, spec, cost=cost,
                      tag=self._generations.stamp(PLAN_DEPS))


class AnswerCache:
    """Normalized question → finished Answer, all-kinds tagged.

    An :class:`~repro.qa.answer.Answer` is frozen, so no caller can
    poison a cached entry: ``put`` stores the object it is given and a
    hit returns that same object to every asker.
    """

    def __init__(self, generations: Generations, sharded: bool = False):
        self._generations = generations
        self._lru = CostAwareLRU(capacity=ANSWER_CAPACITY,
                                 name="serving.answers")
        self._sharded = sharded

    @property
    def lru(self) -> CostAwareLRU:
        """The backing LRU (stats and tests)."""
        return self._lru

    def stamp(self, extra: Tuple[str, ...] = ()) -> Any:
        """The current answer-tier generation stamp.

        Unsharded: a plain tuple over the fixed kind order plus any
        *extra* registered kinds (the server appends the requesting
        tenant's ``tenant:<id>`` counter, so bumping one tenant's
        generation drops exactly that tenant's entries). Sharded: a
        :class:`~repro.sharding.ShardStamp` over every registered kind
        (per-shard and per-tenant counters included) — entries carry a
        *restricted* stamp naming only the kinds they depend on, and
        the intersection-keyed comparison lets a single-shard write or
        single-tenant bump invalidate only the entries that touched it.
        """
        if self._sharded:
            return ShardStamp(self._generations.snapshot())
        return self._generations.stamp(tuple(ANSWER_DEPS) + tuple(extra))

    def get(self, question: Any,
            extra: Tuple[str, ...] = ()) -> Optional[Any]:
        """The cached answer itself (shared, frozen), or None.

        *question* is whatever key the server chose — since the tenancy
        refactor that is the uniform ``(tenant_id, question)`` pair, so
        two tenants asking the same words can never share an entry.
        """
        answer = self._lru.get(question, tag=self.stamp(extra))
        if answer is None:
            incr("serving.cache.answer.miss")
            return None
        incr("serving.cache.answer.hit")
        return answer

    def put(self, question: Any, answer: Any, cost: int,
            tag: Any) -> None:
        """Store *answer* under the stamp its computation started from.

        Callers pass the stamp captured *before* answering: if a write
        raced the computation the stamp already moved on, and the next
        ``get`` drops the entry instead of serving a stale answer.
        """
        self._lru.put(question, answer, cost=max(1, cost), tag=tag)


class CachePolicy:
    """Which tiers a :class:`~repro.serving.server.QueryServer` enables.

    Parsed from the CLI's ``--cache-policy``: ``none``, ``full``, or a
    comma list drawn from ``answer``, ``plan``, ``retrieval``,
    ``embedding`` (e.g. ``plan,retrieval``).
    """

    TIERS = ("answer", "plan", "retrieval", "embedding")

    def __init__(self, answer: bool = True, plan: bool = True,
                 retrieval: bool = True, embedding: bool = True):
        self.answer = answer
        self.plan = plan
        self.retrieval = retrieval
        self.embedding = embedding

    @classmethod
    def none(cls) -> "CachePolicy":
        """Every tier disabled (the uncached reference configuration)."""
        return cls(answer=False, plan=False, retrieval=False,
                   embedding=False)

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
                   retrieval="retrieval" in wanted,
                   embedding="embedding" in wanted)

    def describe(self) -> str:
        """Canonical string form ('none' / 'full' / comma list)."""
        on = [tier for tier in self.TIERS if getattr(self, tier)]
        if len(on) == len(self.TIERS):
            return "full"
        return ",".join(on) or "none"


class MultiTierCache:
    """All enabled tiers plus their shared generation counters."""

    def __init__(self, policy: CachePolicy, generations: Generations,
                 meter: CostMeter, sharded: bool = False):
        self.policy = policy
        self.generations = generations
        self.answers: Optional[AnswerCache] = (
            AnswerCache(generations, sharded=sharded)
            if policy.answer else None
        )
        self.plans: Optional[PlanCache] = (
            PlanCache(generations, meter)
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
