"""The QueryServer: caching + batching + admission over one pipeline.

Composition root of the serving subsystem. Construction wires every
hook the rest of the repo exposes:

* store mutation listeners (relational / document / text) bump the
  shared :class:`~.cache.Generations` counters, so every write
  invalidates exactly the cache tiers that depend on that store kind;
* a pipeline rebuild listener bumps all kinds at once (a rebuilt index
  supersedes everything);
* the plan tier plugs into
  :meth:`~repro.qa.pipeline.HybridQAPipeline.set_plan_cache` and the
  retrieval tier into
  :meth:`~repro.qa.pipeline.HybridQAPipeline.set_retriever_wrapper`.

The answer path is chaos-safe by construction: an answer is cached
only when it is not degraded, no fault fired during its computation
(witnessed through the injector audit log), and no write raced it
(witnessed through the generation stamp). Faulted results are served —
the resilience contract — but never remembered.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..metering import CostMeter
from ..obs import span
from ..qa.answer import Answer
from ..qa.pipeline import HybridQAPipeline
from ..resilience import work_now
from ..tenancy import DEFAULT_TENANT, TenantRegistry
from .admission import AdmissionController, AdmissionPolicy
from .cache import (
    KIND_DOCUMENT, KIND_RELATIONAL, KIND_TEXT, CachePolicy, Generations,
    MultiTierCache,
)
from .retrieval import CachingRetriever
from .scheduler import BatchScheduler, ServeRequest, ServeResult


def _shard_kind(index: int) -> str:
    """The generation-counter kind for one relational shard."""
    return "%s:shard:%d" % (KIND_RELATIONAL, index)


class QueryServer:
    """Serve questions and writes over one built pipeline."""

    def __init__(self, pipeline: HybridQAPipeline,
                 policy: Optional[CachePolicy] = None,
                 admission: Optional[AdmissionPolicy] = None,
                 batch_size: int = 8,
                 tenants: Optional[TenantRegistry] = None):
        self._pipeline = pipeline
        self._meter: CostMeter = pipeline.meter
        self._policy = policy or CachePolicy()
        self._shard_set = getattr(pipeline, "shard_set", None)
        shards = (range(self._shard_set.n_shards)
                  if self._shard_set is not None else ())
        self._generations = Generations(map(_shard_kind, shards))
        self._tiers = MultiTierCache(self._policy, self._generations,
                                     sharded=self._shard_set is not None)
        self._tenants = tenants if tenants is not None else TenantRegistry(())
        # Which tenant the request currently on the answer path runs
        # as — instance state (one server, one request at a time), set
        # and restored around every pipeline call; never module-global.
        self._active_tenant = DEFAULT_TENANT
        self._tenant_cache: Dict[str, Dict[str, int]] = {}
        self._admission = AdmissionController(
            admission, self._tenants, lambda: work_now(self._meter)
        )
        self._scheduler = BatchScheduler(
            self._answer, self._apply_write, self._meter,
            self._admission, batch_size=batch_size,
        )
        pipeline.db.add_mutation_listener(
            lambda op: self._generations.bump(KIND_RELATIONAL)
        )
        pipeline.doc_store.add_mutation_listener(
            lambda op: self._generations.bump(KIND_DOCUMENT)
        )
        pipeline.text_store.add_mutation_listener(
            lambda op: self._generations.bump(KIND_TEXT)
        )
        pipeline.add_rebuild_listener(self._generations.bump_all)
        if self._shard_set is not None:
            # Per-shard invalidation: relational writes bump the owning
            # shard's counter; DDL / bulk / rollback ops (no per-row
            # attribution) bump every shard. The coarse KIND_RELATIONAL
            # bump above stays — the plan tier depends on it.
            self._shard_set.add_write_listener(self._on_shard_write)
            pipeline.db.add_mutation_listener(self._on_relational_bulk)
        if self._tiers.plans is not None:
            pipeline.set_plan_cache(self._tiers.plans)
        if self._tiers.retrieval is not None:
            pipeline.set_retriever_wrapper(self._wrap_retriever)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    @property
    def pipeline(self) -> HybridQAPipeline:
        """The pipeline this server fronts."""
        return self._pipeline

    @property
    def cache(self) -> MultiTierCache:
        """The cache tiers (inspection and tests)."""
        return self._tiers

    @property
    def admission(self) -> AdmissionController:
        """The admission controller (inspection and tests)."""
        return self._admission

    @property
    def tenants(self) -> TenantRegistry:
        """The tenant registry this server enforces."""
        return self._tenants

    def _wrap_retriever(self, retriever: Any) -> CachingRetriever:
        return CachingRetriever(
            retriever, self._tiers.retrieval, self._generations,
            self._meter, fault_witness=self._fault_count,
            scope=lambda: self._active_tenant,
        )

    def _fault_count(self) -> int:
        injector = self._pipeline.resilience.injector
        return len(injector.log) if injector is not None else 0

    # ------------------------------------------------------------------
    # Shard-aware invalidation
    # ------------------------------------------------------------------
    def _on_shard_write(self, kind: str, shard: Optional[int]) -> None:
        if kind != KIND_RELATIONAL or shard is None:
            return
        self._generations.bump(_shard_kind(shard))

    def _on_relational_bulk(self, op: str) -> None:
        if op in ("create_table", "drop_table", "rollback",
                  "load_rows", "load_dicts"):
            for index in range(self._shard_set.n_shards):
                self._generations.bump(_shard_kind(index))

    def _begin_touch(self) -> None:
        if self._shard_set is not None:
            self._shard_set.reset_touched()

    def _entry_tag(self, stamp: Any) -> Any:
        """The dependency-restricted tag a fresh answer is stored under.

        Unsharded, the tag is the pre-compute stamp unchanged. Sharded,
        it is the stamp restricted to the coarse non-relational kinds
        plus exactly the relational shards the answer read — so a write
        into any *other* shard leaves the entry valid.
        """
        if self._shard_set is None:
            return stamp
        kinds = [KIND_DOCUMENT, KIND_TEXT]
        kinds.extend(sorted(
            _shard_kind(index)
            for kind, index in self._shard_set.touched()
            if kind == KIND_RELATIONAL
        ))
        return stamp.restrict(kinds)

    # ------------------------------------------------------------------
    # The answer path
    # ------------------------------------------------------------------
    def _answer(self, question: str,
                tenant: str = DEFAULT_TENANT) -> Answer:
        """Answer one (already normalized) question through the caches.

        The tenant's :class:`~repro.tenancy.TenantContext` is resolved
        here and threaded through the whole answer path: the answer
        cache is keyed ``(tenant_id, question)``, the retrieval tier is
        scoped by the active tenant, and the pipeline compiles the plan
        under the tenant's governance (RLS injection + the fail-closed
        ``check_tenancy`` gate). Admission has already shed a tenant
        the registry does not know, so *tenant* always resolves.
        """
        context = self._tenants.context(tenant)
        key = context.cache_key(question)
        record = self._tenant_cache.setdefault(
            tenant, {"lookups": 0, "hits": 0}
        )
        answers = self._tiers.answers
        if answers is not None:
            record["lookups"] += 1
            hit = answers.get(key)
            if hit is not None:
                record["hits"] += 1
                return hit
        stamp = answers.stamp() if answers is not None else None
        faults_before = self._fault_count()
        self._begin_touch()
        previous = self._active_tenant
        self._active_tenant = tenant
        try:
            started = work_now(self._meter)
            answer = self._pipeline.answer(question, tenant=context)
            cost = work_now(self._meter) - started
        finally:
            self._active_tenant = previous
        if answers is not None and self._cacheable(
            answer, faults_before, stamp
        ):
            answers.put(key, answer, cost=cost,
                        tag=self._entry_tag(stamp))
        return answer

    def _cacheable(self, answer: Answer, faults_before: int,
                   stamp: Any) -> bool:
        if answer.metadata.get("degraded"):
            return False
        if self._fault_count() != faults_before:
            # Faults fired but were fully shielded (no degradation
            # marker); still refuse to cache anything a fault touched.
            return False
        if self._tiers.answers.stamp() != stamp:
            # A write raced the computation; the result may mix pre-
            # and post-write state.
            return False
        return True

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------
    def ask(self, question: str, session: str = "default",
            tenant: str = DEFAULT_TENANT) -> Answer:
        """Answer one question through admission + caches; never raises.

        A one-request :meth:`serve`: the same admission, cache and
        charge path every served question takes.
        """
        request = ServeRequest("ask", {"question": question},
                               session=session, tenant=tenant)
        return self.serve([request])[0].answer

    def serve(self, requests: List[ServeRequest]) -> List[ServeResult]:
        """Run a whole workload through the batch scheduler."""
        with span("serving.serve") as sp:
            sp.set("requests", len(requests))
            results = self._scheduler.run(requests)
            sp.set("batches", self._scheduler.n_batches)
        return results

    def _apply_write(self, request: ServeRequest) -> str:
        """Apply one write op; backend errors degrade, never unwind."""
        detail = self._pipeline.resilience.shield(
            "serving", request.op, lambda: self._run_write(request),
        )
        if detail is None:
            return "write failed (absorbed into degradation record)"
        return detail

    def _run_write(self, request: ServeRequest) -> str:
        payload = request.payload
        if request.op == "sql":
            result = self._pipeline.db.execute(str(payload["statement"]))
            rows = getattr(result, "rows", None)
            return "ok (%d rows)" % len(rows) if rows is not None else "ok"
        if request.op == "add_doc":
            self._pipeline.doc_store.put(
                str(payload["doc_id"]), payload["document"]
            )
            return "ok (document %s)" % payload["doc_id"]
        if request.op == "add_text":
            self._pipeline.ingest_incremental(
                [(str(payload["doc_id"]), str(payload["text"]))]
            )
            return "ok (text %s applied)" % payload["doc_id"]
        raise ValueError("unknown write op %r" % request.op)

    def _tenant_section(self) -> Dict[str, Dict[str, Any]]:
        """Per-tenant serving statistics: admission + answer-cache."""
        out = self._admission.tenant_stats()
        for tenant, record in sorted(self._tenant_cache.items()):
            entry = out.setdefault(tenant, {"requests": 0, "shed": 0})
            entry["answer_lookups"] = record["lookups"]
            entry["answer_hits"] = record["hits"]
            entry["answer_hit_rate"] = (
                round(record["hits"] / record["lookups"], 4)
                if record["lookups"] else 0.0
            )
        return out

    def stats(self) -> Dict[str, Any]:
        """Cache, scheduler and admission statistics in one document."""
        out = {
            "cache": self._tiers.stats(),
            "scheduler": self._scheduler.stats(),
            "admission": self._admission.stats(),
            "tenants": self._tenant_section(),
        }
        if self._shard_set is not None:
            sharding = dict(self._shard_set.describe())
            sharding.update(self._shard_set.stats.snapshot())
            out["sharding"] = sharding
        return out
