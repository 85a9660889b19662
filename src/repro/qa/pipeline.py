"""The hybrid Multi-Entity QA pipeline (paper Section III.C).

End-to-end orchestration over one heterogeneous data lake:

* **ingest** — curated relational tables, JSON documents and free text
  enter their respective stores; unstructured documents additionally
  pass through Relational Table Generation, so their facts become
  queryable rows;
* **index** — the graph index is built over chunks + tables + documents
  and a topology retriever is stood up on it;
* **answer** — questions are routed (structured / unstructured /
  hybrid); structured ones run through Semantic Operator Synthesis over
  curated *and generated* tables, textual ones through topology-RAG,
  hybrid ones through both with the best-grounded answer winning.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..entropy.semantic_entropy import (
    EntropyEstimate, SemanticEntropyEstimator,
)
from ..errors import ExtractionError, ReproError, StorageError
from ..extraction.table_gen import TableGenerator
from ..graphindex.builder import GraphIndexBuilder
from ..graphindex.hetgraph import HeterogeneousGraph
from ..metering import CostMeter, GLOBAL_METER
from ..obs import span
from ..resilience import (
    CONFIDENCE_PENALTY, QuestionScope, ResilienceConfig,
    ResilienceManager, summarize,
)
from ..retrieval.topology import TopologyRetriever
from ..semql.catalog import SchemaCatalog
from ..slm.model import SmallLanguageModel
from ..storage.document.store import DocumentStore
from ..storage.relational.database import Database
from ..storage.textstore import TextStore
from ..text.chunker import Chunk
from .answer import ANSWER_SYSTEM_HYBRID, Answer
from ..tenancy import TenantContext
from .executor import PlanExecutor
from .federation import FederatedRouter
from .plan import render_plan
from .speculative import explain_arms
from .tableqa import TableQAEngine
from .textqa import TextQAEngine

# Column synonyms auto-registered for generated tables, mirroring the
# attribute vocabulary of repro.extraction.attributes.
_GENERATED_SYNONYMS = (
    ("increase", "change_percent"),
    ("decrease", "change_percent"),
    ("change", "change_percent"),
    ("growth", "change_percent"),
    ("product", "subject"),
    ("drug", "subject"),
    ("amount", "amount"),
    ("revenue", "amount"),
)


class HybridQAPipeline:
    """One object from raw lake to answered question.

    *resilience* configures the answer path's guards: retries, the
    per-question budget and, when it carries a fault plan, which
    backends ``build()`` puts behind a fault-injecting proxy.
    ``isolate_arms=False`` is the tests' sequential reference: every
    plan runs bare, without the arm isolation scopes (and their rescue
    reserve) that plans spanning two engines otherwise get.
    """

    def __init__(self, slm: SmallLanguageModel,
                 meter: Optional[CostMeter] = None,
                 resilience: Optional[ResilienceConfig] = None,
                 isolate_arms: bool = True):
        self._slm = slm
        self._meter = meter if meter is not None else GLOBAL_METER
        self._resilience = ResilienceManager(self._meter, resilience)
        self.db = Database(meter=self._meter)
        self.text_store = TextStore(meter=self._meter)
        self.doc_store = DocumentStore(meter=self._meter)
        self._table_generator = TableGenerator(slm)
        self._generated_tables: List[str] = []
        self._table_entity_columns: Dict[str, List[str]] = {}
        self._pending_synonyms: List[Tuple[str, str, str]] = []
        self._pending_joins: List[Tuple[str, str, str, str]] = []
        self._pending_display: List[Tuple[str, str]] = []
        self._builder: Optional[GraphIndexBuilder] = None
        self._graph: Optional[HeterogeneousGraph] = None
        self._core_retriever: Optional[TopologyRetriever] = None
        self._retriever: Optional[Any] = None
        self._text_qa: Optional[TextQAEngine] = None
        self._table_qa: Optional[TableQAEngine] = None
        self._router: Optional[FederatedRouter] = None
        self._executor: Optional[PlanExecutor] = None
        self._isolate_arms = isolate_arms
        self._backends_guarded = False
        self._plan_cache: Optional[Any] = None
        self._retriever_wrapper: Optional[Any] = None
        #: Moves once at the end of each ``build()`` and each
        #: ``ingest_incremental()``: state derived from the index (a
        #: served answer, plan or ranking) is current only at the
        #: version it was made at.
        self.version = 0

    # ------------------------------------------------------------------
    # Serving hooks
    # ------------------------------------------------------------------
    def set_plan_cache(self, cache: Optional[Any]) -> None:
        """Install a plan cache on the TableQA engine, surviving rebuilds.

        Engines are recreated on ``build()``/``ingest_incremental()``;
        storing the cache here re-injects it into every future
        :class:`TableQAEngine` this pipeline builds.
        """
        self._plan_cache = cache
        if self._table_qa is not None:
            self._table_qa.set_plan_cache(cache)

    def set_retriever_wrapper(self, wrapper: Optional[Any]) -> None:
        """Install ``wrapper(retriever) -> retriever`` over the retriever.

        The serving layer's retrieval-cache hook. It wraps the guarded
        retriever now (when one exists) and again each time the
        retriever is rebuilt (see :meth:`_install_retriever`).
        """
        self._retriever_wrapper = wrapper
        if self._core_retriever is not None:
            self._install_retriever(self._core_retriever)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def add_sql(self, statements: Iterable[str]) -> None:
        """Run CREATE/INSERT statements to load curated tables."""
        for statement in statements:
            self.db.execute(statement)

    def declare_entity_columns(self, table: str,
                               columns: Sequence[str]) -> None:
        """Mark which columns of a curated table name graph entities."""
        for column in columns:
            self.db.table(table).schema.index_of(column)
        self._table_entity_columns[table] = list(columns)
        names = set()
        for column in columns:
            for value in self.db.table(table).column_values(column):
                if isinstance(value, str):
                    names.add(value)
        if names:
            self._slm.add_gazetteer("VALUE", sorted(names))
            # Facts kept from earlier generations predate these names.
            self._table_generator.forget()

    def register_synonym(self, term: str, table: str, column: str) -> None:
        """Declare an NL term → column mapping (applied at build time)."""
        self._pending_synonyms.append((term, table, column))

    def register_join(self, table_a: str, column_a: str,
                      table_b: str, column_b: str) -> None:
        """Declare a joinable key pair (applied at build time)."""
        self._pending_joins.append((table_a, column_a, table_b, column_b))

    def register_display_column(self, table: str, column: str) -> None:
        """Column used to verbalize "list <table>" answers."""
        self._pending_display.append((table, column))

    def add_documents(self, docs: Iterable[Tuple[str, Any]]) -> None:
        """Load semi-structured documents."""
        self.doc_store.put_many(docs)

    def add_texts(self, docs: Iterable[Tuple[str, str]]) -> None:
        """Load unstructured text documents (chunked on ingest)."""
        self.text_store.add_many(docs)

    def generate_table(self, name: str,
                       doc_ids: Optional[Sequence[str]] = None) -> int:
        """Run Relational Table Generation over stored texts.

        Returns the generated row count (0 when nothing extractable —
        the pipeline still works, via the RAG path).
        """
        ids = list(doc_ids) if doc_ids is not None \
            else self.text_store.doc_ids()
        documents = [(i, self.text_store.document(i)) for i in ids]
        try:
            generated = self._table_generator.generate_into(
                self.db, name, documents
            )
        except ExtractionError:
            return 0
        if name not in self._generated_tables:
            self._generated_tables.append(name)
        return len(generated.table)

    # ------------------------------------------------------------------
    # Index construction
    # ------------------------------------------------------------------
    def build(self) -> None:
        """Build the graph index, retriever and QA engines.

        Every stored chunk is applied, as one delta, to an empty index.
        Between the index and the engines, every backend the fault plan
        names is put behind its resilience proxy — once: a second
        ``build()`` keeps the proxies. Building runs unguarded, so only
        the answer path ever draws faults.
        """
        self._builder = GraphIndexBuilder(self._slm, meter=self._meter)
        self._core_retriever = None
        core = self._apply(self.text_store.chunks(), records=True)
        self._guard_backends()
        self._install_retriever(core)
        self._build_engines()
        self.version += 1

    def _apply(self, added: Sequence[Chunk], removed: Sequence[str] = (),
               records: bool = False) -> Optional[TopologyRetriever]:
        """The one write path: apply a text delta to graph and retriever.

        The builder drops the *removed* chunk ids, then tags the *added*
        chunks in; ``build()`` passes ``records=True`` so the index also
        projects tables and documents, after the chunks. The live
        retriever takes the same delta. Without one, a retriever over
        every stored chunk is returned for :meth:`_install_retriever`
        (None: there is one already, or there is no text).
        """
        builder = self._builder
        builder.remove_chunks(removed)
        builder.add_chunks(added)
        if records:
            for table, columns in self._table_entity_columns.items():
                builder.add_table(self.db.table(table),
                                  entity_columns=columns)
            if len(self.doc_store):
                entity_paths = self._document_entity_paths()
                if entity_paths:
                    builder.add_documents(self.doc_store, entity_paths)
        self._graph = builder.build()
        if self._core_retriever is not None:
            self._core_retriever.update(added, removed)
            return None
        chunks = self.text_store.chunks()
        if not chunks:
            return None
        core = TopologyRetriever(self._graph, self._slm, meter=self._meter)
        core.index(chunks)
        return core

    def _guard_backends(self) -> None:
        """Wrap each store and the SLM the fault plan names (once)."""
        if self._backends_guarded:
            return
        self._backends_guarded = True
        plan = self._resilience.config.fault_plan
        backends = plan.backends if plan is not None else {}
        manager = self._resilience
        if "relational" in backends:
            self.db = manager.wrap("relational", self.db, ("execute",))
        if "document" in backends:
            self.doc_store = manager.wrap(
                "document", self.doc_store,
                ("get", "scan", "find_equal", "project"),
            )
        if "textstore" in backends:
            self.text_store = manager.wrap(
                "textstore", self.text_store, ("document", "chunks_of"),
            )
        if "slm" in backends:
            self._slm = manager.wrap(
                "slm", self._slm,
                ("generate", "entails", "tag_entities", "sample_answers"),
            )

    def _install_retriever(self, core: Optional[TopologyRetriever]) -> None:
        """Make *core* the retriever the text engine and executor read.

        The one place the chain is composed, innermost first: *core*,
        its resilience guard (when the fault plan names ``retriever``),
        the serving wrapper — so retrieval-cache hits never draw faults
        — then a fresh text engine and executor over it. ``None`` (a
        lake without text) keeps whatever retriever there is.
        """
        if core is None:
            return
        retriever: Any = core
        plan = self._resilience.config.fault_plan
        if plan is not None and "retriever" in plan.backends:
            retriever = self._resilience.wrap("retriever", retriever,
                                              ("retrieve",))
        if self._retriever_wrapper is not None:
            retriever = self._retriever_wrapper(retriever)
        self._core_retriever = core
        self._retriever = retriever
        self._text_qa = TextQAEngine(retriever, self._slm)
        self._build_executor()

    def _build_engines(self) -> None:
        catalog = SchemaCatalog(self.db)
        for name in self._generated_tables:
            schema = self.db.table(name).schema
            for term, column in _GENERATED_SYNONYMS:
                if schema.has_column(column):
                    catalog.register_synonym(term, name, column)
        for term, table, column in self._pending_synonyms:
            catalog.register_synonym(term, table, column)
        for table_a, column_a, table_b, column_b in self._pending_joins:
            catalog.register_join(table_a, column_a, table_b, column_b)
        for table, column in self._pending_display:
            catalog.register_display_column(table, column)
        catalog.build_value_index()
        self._table_qa = TableQAEngine(
            self.db, catalog, system_name=ANSWER_SYSTEM_HYBRID
        )
        if self._plan_cache is not None:
            self._table_qa.set_plan_cache(self._plan_cache)
        self._router = FederatedRouter(catalog)
        self._build_executor()

    def _build_executor(self) -> None:
        """A plan executor over the current engines (once they exist)."""
        if self._table_qa is None:
            return
        self._executor = PlanExecutor(
            self._router, self._table_qa, self._text_qa, self._resilience,
            self._slm, isolate_arms=self._isolate_arms,
        )

    def _document_entity_paths(self) -> List[str]:
        # Use shallow scalar keys that appear in most documents.
        from collections import Counter

        key_counts: Counter = Counter()
        n_docs = 0
        for _, document in self.doc_store.scan():
            n_docs += 1
            if isinstance(document, dict):
                for key, value in document.items():
                    if isinstance(value, str):
                        key_counts[key] += 1
        return [
            key for key, count in key_counts.items()
            if count >= max(1, n_docs // 2)
        ]

    # ------------------------------------------------------------------
    # Answering
    # ------------------------------------------------------------------
    def _check_built(self) -> None:
        if self._table_qa is None or self._router is None:
            raise ReproError("pipeline.build() must run before answer()")

    @property
    def graph(self) -> HeterogeneousGraph:
        """The built graph index."""
        self._check_built()
        return self._graph

    @property
    def table_qa(self) -> TableQAEngine:
        """The TableQA engine over curated + generated tables."""
        self._check_built()
        return self._table_qa

    @property
    def text_qa(self) -> Optional[TextQAEngine]:
        """The topology-RAG engine (None when the lake has no text)."""
        return self._text_qa

    def route(self, question: str):
        """The router's decision for *question* (for inspection)."""
        self._check_built()
        return self._router.route(question)

    @property
    def slm(self) -> SmallLanguageModel:
        """The SLM facade (a resilience proxy, after ``build()``, when
        the fault plan names ``slm``)."""
        return self._slm

    @property
    def meter(self) -> CostMeter:
        """The cost meter every store and engine in this pipeline charges."""
        return self._meter

    @property
    def resilience(self) -> ResilienceManager:
        """The resilience manager guarding this pipeline's backends."""
        return self._resilience

    def answer(self, question: str,
               tenant: Optional[TenantContext] = None) -> Answer:
        """Answer through the hybrid route; never raises on backend faults.

        Comparison questions ("Compare X and Y ...") are decomposed
        into per-entity sub-questions first (paper Section III.C's
        Multi-Entity QA), each answered through the full route. The
        route itself is a compiled :class:`~repro.qa.plan.FederatedPlan`
        interpreted by the shared :class:`~repro.qa.executor.
        PlanExecutor`: every backend call runs under the resilience
        manager — faults retry, budgets bound per-question work, and
        exhausted engines degrade to the other modality (or a typed
        abstention) with the coping story recorded in
        ``metadata["degradation"]``.

        *tenant* (a :class:`~repro.tenancy.TenantContext`, optional)
        carries the request's governance explicitly — the pipeline
        holds no tenant state of its own; ``None`` answers exactly as
        a permissive single-tenant pipeline always has.
        """
        self._check_built()
        with span("qa.answer") as sp:
            with self._resilience.question() as scope:
                answer = self._attach_degradation(
                    self._executor.answer(question, tenant=tenant), scope)
            sp.set("route", answer.metadata.get("route", "?"))
            sp.set("abstained", answer.abstained)
            sp.set("degraded", bool(scope.events))
        return answer

    def explain(self, question: str,
                tenant: Optional[TenantContext] = None) -> str:
        """What answering *question* would do, and why, without
        answering it (``repro ask --explain-plan``).

        Comparison questions decompose into their sub-questions first,
        as on the answer path. Each (sub-)question shows its compiled
        plan DAG (digest, stages, route reason and bound tables), how
        its arms run and the engines' dry runs
        (:meth:`~repro.qa.executor.PlanExecutor.dry_run`).
        *tenant* compiles and dry-runs under that tenant's governance,
        as :meth:`answer` would. Backend faults never raise: each one
        prints in place of the dry-run line it cut short.
        """
        self._check_built()
        from .compare import decompose, detect_comparison

        manager = self._resilience
        with span("qa.explain"), manager.question():
            frame = manager.shield(
                "explain", "compare",
                lambda: detect_comparison(question, self._slm),
            )
            if frame is None:
                return "\n".join(self._explain_one(question, tenant))
            lines = ["comparison of: %s" % ", ".join(frame.entity_names)]
            for entity, sub_question in decompose(frame):
                lines.append("sub[%s]:" % entity)
                lines.extend("  " + line for line in
                             self._explain_one(sub_question, tenant))
            return "\n".join(lines)

    def _explain_one(self, question: str,
                     tenant: Optional[TenantContext]) -> List[str]:
        """One plan's DAG, arm block and dry runs."""
        executor = self._executor
        plan = executor.compile(question, tenant=tenant)
        arms, sequential_because = executor.arm_isolation(plan)
        lines = render_plan(plan).splitlines()
        lines.extend("  " + line
                     for line in explain_arms(arms, sequential_because))
        lines.extend("  " + line for line in executor.dry_run(plan, tenant))
        return lines

    @staticmethod
    def _attach_degradation(answer: Answer, scope: QuestionScope) -> Answer:
        """*answer* with the scope's absorbed faults recorded on it."""
        if not scope.events:
            return answer
        already_penalized = bool(answer.metadata.get("degradation"))
        summary = summarize(
            scope.events,
            fallback=answer.metadata.get("fallback_engine"),
            abstained=answer.abstained,
        )
        summary["retries"] = scope.retries
        summary["work_spent"] = scope.spent_work
        confidence = answer.confidence
        if not already_penalized and not answer.abstained:
            confidence = round(
                confidence * CONFIDENCE_PENALTY[summary["severity"]], 6,
            )
        return dataclasses.replace(
            answer, confidence=confidence,
            metadata={**answer.metadata, "degradation": summary,
                      "degraded": True},
        )

    def answer_with_uncertainty(
        self, question: str, n_samples: int = 8,
        temperature: float = 0.9, review_threshold: float = 0.6,
        seed: Optional[int] = None,
    ) -> Tuple[Answer, Optional[EntropyEstimate]]:
        """Answer plus a semantic-entropy reliability estimate.

        SQL-grounded answers are deterministic — they come back with no
        entropy estimate (``None``) and are always servable. Text-path
        answers are re-sampled ``n_samples`` times over the same
        retrieved context; the estimate's normalized entropy above
        ``review_threshold`` flags the answer for human review via
        ``answer.metadata['needs_review']``.
        """
        self._check_built()
        with self._resilience.question() as scope:
            answer = self.answer(question)
            deterministic = any(
                p.startswith("sql:") for p in answer.provenance
            )
            if deterministic or self._text_qa is None or answer.abstained:
                return answer.with_metadata(needs_review=False), None
            estimate = self._resilience.shield(
                "entropy", "estimate",
                lambda: self._estimate_entropy(
                    question, n_samples, temperature, seed
                ),
            )
            if estimate is None:
                # Entropy sampling faulted: the answer stands but its
                # reliability is unverified — flag for human review.
                answer = answer.with_metadata(needs_review=True)
                return self._attach_degradation(answer, scope), None
        return answer.with_metadata(
            semantic_entropy=estimate.entropy,
            needs_review=estimate.normalized > review_threshold,
        ), estimate

    def _estimate_entropy(self, question: str, n_samples: int,
                          temperature: float,
                          seed: Optional[int]) -> EntropyEstimate:
        with span("qa.entropy", n_samples=n_samples) as sp:
            contexts = self._executor.retrieve_contexts(question)
            samples = self._slm.sample_answers(
                question, contexts, n_samples=n_samples,
                temperature=temperature, seed=seed,
            )
            estimator = SemanticEntropyEstimator(judge=self._slm.judge)
            estimate = estimator.estimate(samples)
            sp.set("entropy", estimate.entropy)
        return estimate

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def ingest_incremental(self, docs: Sequence[Tuple[str, str]]) -> None:
        """Add or replace text documents in a *built* pipeline.

        The call is one delta, applied as ``build()`` applies the whole
        lake: the chunks of every stored document it replaces go out,
        the chunks of what it writes come in, and only those are tagged.
        Every generated table is then regenerated (each stored
        document's facts are kept, and a table whose regeneration finds
        none keeps its rows), the engines rebuilt and :attr:`version`
        moved, once.
        """
        self._check_built()
        # The write path runs unguarded, as build() does.
        store = getattr(self.text_store, "resilient_target", self.text_store)
        removed: List[str] = []
        latest: Dict[str, List[Chunk]] = {}
        for doc_id, text in docs:
            if doc_id not in latest:
                try:
                    removed.extend(c.chunk_id
                                   for c in store.chunks_of(doc_id))
                except StorageError:
                    pass  # a fresh id replaces nothing
            latest[doc_id] = store.add(doc_id, text)
        # Store order, as build() adds them: an entity new to the graph
        # takes the type its first chunk saw.
        added = [chunk for doc_id in sorted(latest)
                 for chunk in latest[doc_id]]
        self._install_retriever(self._apply(added, removed))
        for name in list(self._generated_tables):
            self.generate_table(name)
        self._build_engines()
        self.version += 1
