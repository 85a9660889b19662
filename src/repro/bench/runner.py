"""Experiment runner: build systems from a lake, run suites, collect rows.

The three E2/E6 systems are constructed here from the same lake:

* **hybrid** — the paper's full pipeline (graph index, topology
  retrieval, generated tables, federated routing);
* **text2sql** — Semantic Operator Synthesis over curated tables only;
* **rag** — dense-retrieval RAG over the unstructured text only.

Each system answers through one uniform callable so the harness can
score accuracy, abstention and metered cost identically.

A served stack (pipeline + query server) is one validated
:class:`StackConfig`, stood up by :func:`build_stack`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import LoadGenError, TenancyError
from ..metering import CostMeter
from ..obs import Tracer, aggregate_stages
from ..qa.answer import Answer
from ..qa.pipeline import HybridQAPipeline
from ..qa.tableqa import TableQAEngine
from ..qa.textqa import TextQAEngine
from ..resilience import ResilienceConfig
from ..resilience.faults import shard_index
from ..retrieval.dense import DenseRetriever
from ..semql.catalog import SchemaCatalog
from ..serving import AdmissionPolicy, CachePolicy, QueryServer
from ..slm.model import SLMConfig, SmallLanguageModel
from ..storage.relational.database import Database
from ..tenancy import TenantRegistry
from ..text.chunker import Chunker, ChunkerConfig
from ..text.ner import Gazetteer
from .datagen.ecommerce import (
    EcommerceLake, LakeSpec, generate_ecommerce_lake,
)
from .datagen.healthcare import (
    HealthcareLake, HealthSpec, generate_healthcare_lake,
)
from .datagen.queries import QAPair


@dataclass
class QASystem:
    """One benchmarked QA system: a name, an answer fn, and its meter."""

    name: str
    answer: Callable[[str], Answer]
    meter: CostMeter


@dataclass
class SuiteResult:
    """Aggregated outcome of one system over one QA suite.

    ``total_seconds`` is the best (minimum) timed pass when the suite
    ran with repeats; ``stages`` holds the per-stage trace breakdown
    (span name → calls / self seconds / self cost) when tracing was
    requested, empty otherwise.
    """

    system: str
    per_kind_accuracy: Dict[str, float]
    per_kind_counts: Dict[str, int]
    overall_accuracy: float
    abstention_rate: float
    total_seconds: float
    cost: Dict[str, int]
    stages: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def row(self) -> Dict[str, Any]:
        """Flat dict for table rendering."""
        out: Dict[str, Any] = {"system": self.system}
        for kind in sorted(self.per_kind_accuracy):
            out[kind] = round(self.per_kind_accuracy[kind], 3)
        out["overall"] = round(self.overall_accuracy, 3)
        out["abstain"] = round(self.abstention_rate, 3)
        out["seconds"] = round(self.total_seconds, 3)
        return out


# ----------------------------------------------------------------------
# System construction
# ----------------------------------------------------------------------
def _lake_parts(lake) -> Tuple[List[str], List[Tuple[str, str]],
                               List[Tuple[str, Any]], List[str], str, str]:
    """(sql, texts, docs, entity_names, entity_table, generated_name)."""
    if isinstance(lake, EcommerceLake):
        return (lake.sql_statements(), lake.review_texts,
                lake.shipment_docs, lake.product_names(), "products",
                "review_facts")
    if isinstance(lake, HealthcareLake):
        return (lake.sql_statements(), lake.note_texts, lake.lab_docs,
                lake.drug_names(), "drugs", "note_facts")
    raise TypeError("unsupported lake type %r" % type(lake).__name__)


#: Schema links per lake, keyed by its entity table: column synonyms
#: ``(term, table, column)``, joins ``(table, column, table, column)``
#: and the display column ``(table, column)``. Every builder over the
#: curated tables declares them.
_LINKS = {
    "products": (
        (("sales", "sales", "amount"),),
        (("sales", "pid", "products", "pid"),),
        ("products", "name"),
    ),
    "drugs": (
        (("efficacy", "trials", "efficacy"),
         ("enrolled", "trials", "enrolled")),
        (("trials", "did", "drugs", "did"),),
        ("drugs", "name"),
    ),
}


def generate_lake(domain: str, seed: int):
    """The default-sized benchmark lake of *domain* at *seed*."""
    if domain == "ecommerce":
        return generate_ecommerce_lake(LakeSpec(seed=seed))
    if domain == "healthcare":
        return generate_healthcare_lake(HealthSpec(seed=seed))
    raise ValueError("unknown domain %r" % domain)


def build_hybrid_system(
    lake, seed: int = 0, n_shards: int = 1, *,
    isolate_arms: bool = True,
    resilience: Optional[ResilienceConfig] = None,
) -> Tuple[QASystem, HybridQAPipeline]:
    """The paper's full pipeline over *lake* — the one way every entry
    point (:func:`build_stack`, benches, tests) stands it up.

    With ``n_shards > 1`` the stores are partitioned by entity key and
    queries scatter-gather over per-shard resilience guards; answers are
    byte-identical to the unsharded build. *isolate_arms* and
    *resilience* are handed to the pipeline (``isolate_arms=False`` is
    the tests' sequential reference); ``build()`` puts the backends the
    fault plan names behind their guards once the index is built, so
    faults only ever hit the answer path.
    """
    meter = CostMeter()
    sql, texts, docs, names, entity_table, generated = _lake_parts(lake)
    gazetteer = Gazetteer()
    gazetteer.add("VALUE", names)
    slm = SmallLanguageModel(SLMConfig(seed=seed), gazetteer=gazetteer,
                             meter=meter)
    pipeline = HybridQAPipeline(slm, meter=meter, resilience=resilience,
                                isolate_arms=isolate_arms,
                                n_shards=n_shards)
    pipeline.add_sql(sql)
    pipeline.declare_entity_columns(entity_table, ["name"])
    pipeline.add_texts(texts)
    pipeline.add_documents(docs)
    pipeline.generate_table(generated)
    synonyms, joins, display = _LINKS[entity_table]
    for synonym in synonyms:
        pipeline.register_synonym(*synonym)
    for join in joins:
        pipeline.register_join(*join)
    pipeline.register_join(generated, "subject", entity_table, "name_key")
    pipeline.register_display_column(*display)
    pipeline.build()
    return QASystem("hybrid", pipeline.answer, meter), pipeline


# ----------------------------------------------------------------------
# Stack configuration
# ----------------------------------------------------------------------
#: The benchmark lakes a stack can be built over.
DOMAINS = ("ecommerce", "healthcare")


def check_int(key: str, value: Any, minimum: int,
              optional: bool = False) -> None:
    """LoadGenError unless *value* is an int (not bool) >= *minimum*."""
    if value is None and optional:
        return
    if not isinstance(value, int) or isinstance(value, bool):
        raise LoadGenError("%s must be an integer, got %r" % (key, value))
    if value < minimum:
        raise LoadGenError("%s must be %s, got %d" % (
            key, "positive" if minimum > 0 else "non-negative", value))


def _parse_faults(doc: Any, shards: int) -> Optional[ResilienceConfig]:
    if doc is None:
        return None
    if not isinstance(doc, dict):
        raise LoadGenError("faults must be a resilience config object")
    try:
        config = ResilienceConfig.from_dict(doc)
    except (TypeError, ValueError, AttributeError) as exc:
        raise LoadGenError("faults is invalid: %s" % exc) from exc
    plan = config.fault_plan
    for name in plan.backends if plan is not None else ():
        index = shard_index(name)
        # An unsharded stack has no shard guards at all.
        if index is not None and (shards == 1 or index >= shards):
            raise LoadGenError("faults is invalid: backends: no backend "
                               "%r in a %d-shard stack" % (name, shards))
    return config


def _parse_policy(text: Any) -> CachePolicy:
    if not isinstance(text, str):
        raise LoadGenError("cache_policy must be a string, got %r"
                           % (text,))
    try:
        return CachePolicy.from_string(text)
    except ValueError as exc:
        raise LoadGenError("cache_policy is invalid: %s" % exc) from exc


def _parse_registry(doc: Any) -> TenantRegistry:
    if doc is None:
        return TenantRegistry(())
    try:
        return TenantRegistry.from_dict(doc)
    except TenancyError as exc:
        raise LoadGenError("tenant_registry is invalid: %s" % exc) from exc


@dataclass(frozen=True)
class StackConfig:
    """Everything that shapes one served stack, validated once.

    Every field is both a load-spec key and a CLI flag (``faults`` is
    ``--faults FILE``, ``tenant_registry`` is ``--tenants FILE``).
    Construction validates every value and raises
    :class:`~repro.errors.LoadGenError` on the first bad one, so a bad
    value fails before any lake is built. ``faults`` and
    ``tenant_registry`` keep the documents as given (a load spec echoes
    them verbatim); :attr:`resilience`, :attr:`policy`,
    :attr:`admission` and :attr:`tenants` are their parsed forms.
    """

    domain: str = "ecommerce"
    seed: int = 17
    shards: int = 1
    faults: Optional[Dict[str, Any]] = None
    cache_policy: str = "full"
    batch_size: int = 8
    session_budget: Optional[int] = None
    max_queue_depth: Optional[int] = None
    tenant_registry: Optional[Dict[str, Any]] = None
    resilience: Optional[ResilienceConfig] = field(
        init=False, compare=False, repr=False)
    policy: CachePolicy = field(init=False, compare=False, repr=False)
    admission: AdmissionPolicy = field(init=False, compare=False,
                                       repr=False)
    tenants: TenantRegistry = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.domain not in DOMAINS:
            raise LoadGenError("domain %r unknown (expected one of %s)"
                               % (self.domain, ", ".join(DOMAINS)))
        check_int("seed", self.seed, 0)
        check_int("shards", self.shards, 1)
        check_int("batch_size", self.batch_size, 1)
        check_int("session_budget", self.session_budget, 1, optional=True)
        check_int("max_queue_depth", self.max_queue_depth, 1,
                  optional=True)
        for name, value in (
            ("resilience", _parse_faults(self.faults, self.shards)),
            ("policy", _parse_policy(self.cache_policy)),
            ("admission", AdmissionPolicy(self.session_budget,
                                          self.max_queue_depth)),
            ("tenants", _parse_registry(self.tenant_registry)),
        ):
            object.__setattr__(self, name, value)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "StackConfig":
        """Validate a ``{stack key: value}`` mapping (missing keys take
        the defaults); raises :class:`~repro.errors.LoadGenError`."""
        unknown = sorted(set(data) - set(STACK_KEYS))
        if unknown:
            raise LoadGenError("unknown stack key(s) %s; expected a subset "
                               "of %s" % (unknown, ", ".join(STACK_KEYS)))
        return cls(**data)


#: The settable :class:`StackConfig` keys, in declaration order.
STACK_KEYS = tuple(f.name for f in fields(StackConfig) if f.init)


def read_document(path: str, flag: str) -> Dict[str, Any]:
    """The JSON object in the file *path* (given as *flag*): the one
    reader of fault plans, tenant registries and load specs. Raises
    :class:`~repro.errors.LoadGenError` on anything else."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError) as exc:
        raise LoadGenError("%s %s: cannot read: %s"
                           % (flag, path, exc)) from exc
    if not isinstance(data, dict):
        raise LoadGenError("%s %s: expected a JSON object" % (flag, path))
    return data


def build_stack(config: StackConfig, serve: bool = True
                ) -> Tuple[Any, HybridQAPipeline, Optional[QueryServer]]:
    """``(lake, pipeline, server)``: the stack *config* describes.

    The pipeline arms the fault plan inside its ``build()``; the server
    gets the cache policy, batch size, admission limits and tenant
    registry. ``serve=False`` stops at the pipeline, for commands that
    answer without serving.
    """
    lake = generate_lake(config.domain, config.seed)
    _system, pipeline = build_hybrid_system(
        lake, seed=config.seed, n_shards=config.shards,
        resilience=config.resilience,
    )
    server = None
    if serve:
        server = QueryServer(pipeline, policy=config.policy,
                             admission=config.admission,
                             batch_size=config.batch_size,
                             tenants=config.tenants)
    return lake, pipeline, server


def build_text2sql_system(lake) -> QASystem:
    """Text-to-SQL baseline: curated tables only, no text access."""
    meter = CostMeter()
    sql, _texts, _docs, _names, entity_table, _generated = _lake_parts(lake)
    db = Database(meter=meter)
    for statement in sql:
        db.execute(statement)
    catalog = SchemaCatalog(db)
    synonyms, joins, display = _LINKS[entity_table]
    for synonym in synonyms:
        catalog.register_synonym(*synonym)
    for join in joins:
        catalog.register_join(*join)
    catalog.register_display_column(*display)
    catalog.build_value_index()
    engine = TableQAEngine(db, catalog)
    return QASystem("text2sql", engine.answer, meter)


def build_rag_system(lake, seed: int = 0, k: int = 4,
                     retriever_kind: str = "dense") -> QASystem:
    """RAG baseline: text only, no tables.

    ``retriever_kind`` picks the retrieval half: "dense" is the
    conventional-RAG baseline; "topology" isolates the architecture
    question — a RAG system with the paper's retriever but *without*
    table generation still cannot aggregate.
    """
    meter = CostMeter()
    _sql, texts, _docs, names, _entity_table, _generated = _lake_parts(lake)
    gazetteer = Gazetteer()
    gazetteer.add("VALUE", names)
    slm = SmallLanguageModel(SLMConfig(seed=seed), gazetteer=gazetteer,
                             meter=meter)
    chunker = Chunker(ChunkerConfig(max_tokens=48, overlap_sentences=0))
    chunks = chunker.chunk_corpus(texts)
    if retriever_kind == "topology":
        from ..graphindex.builder import GraphIndexBuilder
        from ..retrieval.topology import TopologyRetriever

        builder = GraphIndexBuilder(slm, meter=meter)
        builder.add_chunks(chunks)
        retriever = TopologyRetriever(builder.build(), slm, meter=meter)
        name = "rag_topology"
    else:
        retriever = DenseRetriever(slm.embedder, meter=meter)
        name = "rag"
    retriever.index(chunks)
    engine = TextQAEngine(retriever, slm, k=k, temperature=0.3)
    return QASystem(name, engine.answer, meter)


# ----------------------------------------------------------------------
# Suite execution
# ----------------------------------------------------------------------
def _run_pass(system: QASystem, pairs: Sequence[QAPair]):
    """One scored pass: (correct, counts, abstained, seconds, cost)."""
    correct: Dict[str, int] = {}
    counts: Dict[str, int] = {}
    abstained = 0
    before = system.meter.snapshot()
    started = time.perf_counter()
    for pair in pairs:
        counts[pair.kind] = counts.get(pair.kind, 0) + 1
        answer = system.answer(pair.question)
        if answer.abstained:
            abstained += 1
        if pair.is_correct(answer):
            correct[pair.kind] = correct.get(pair.kind, 0) + 1
    elapsed = time.perf_counter() - started
    return correct, counts, abstained, elapsed, system.meter.diff(before)


def run_qa_suite(system: QASystem, pairs: Sequence[QAPair],
                 warmup: int = 0, repeats: int = 1,
                 trace: bool = False) -> SuiteResult:
    """Answer every pair, scoring accuracy/abstention per kind.

    ``warmup`` passes run first and are discarded (caches, lazy init);
    the suite then runs ``repeats`` timed passes and reports the
    *minimum* wall time — the standard noise-robust estimator.
    Accuracy, abstention and cost come from the first timed pass (the
    systems are deterministic, so every pass scores identically).
    With ``trace`` a final untimed pass runs under a tracer and the
    per-stage breakdown lands in :attr:`SuiteResult.stages` — kept out
    of the timed passes so tracing overhead never pollutes timings.
    """
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    for _ in range(warmup):
        _run_pass(system, pairs)
    passes = [_run_pass(system, pairs) for _ in range(repeats)]
    correct, counts, abstained, _, cost = passes[0]
    best_seconds = min(elapsed for _, _, _, elapsed, _ in passes)
    stages: Dict[str, Dict[str, Any]] = {}
    if trace:
        tracer = Tracer(meter=system.meter)
        with tracer.activate():
            for pair in pairs:
                system.answer(pair.question)
        stages = aggregate_stages(tracer)
    per_kind = {
        kind: correct.get(kind, 0) / counts[kind] for kind in counts
    }
    total = sum(counts.values())
    return SuiteResult(
        system=system.name,
        per_kind_accuracy=per_kind,
        per_kind_counts=counts,
        overall_accuracy=sum(correct.values()) / total if total else 0.0,
        abstention_rate=abstained / total if total else 0.0,
        total_seconds=best_seconds,
        cost=cost,
        stages=stages,
    )


def run_all_systems(lake, pairs: Sequence[QAPair], seed: int = 0,
                    include_rag_topology: bool = False,
                    warmup: int = 0, repeats: int = 1,
                    trace: bool = False) -> List[SuiteResult]:
    """E2's comparison: hybrid vs text2sql vs rag on the same suite.

    With ``include_rag_topology`` a fourth system runs: RAG over the
    paper's retriever but without table generation — the ablation that
    attributes hybrid's structured wins to the architecture rather
    than the retriever.
    """
    hybrid, _pipeline = build_hybrid_system(lake, seed=seed)
    systems = [hybrid, build_text2sql_system(lake),
               build_rag_system(lake, seed=seed)]
    if include_rag_topology:
        systems.append(
            build_rag_system(lake, seed=seed, retriever_kind="topology")
        )
    return [
        run_qa_suite(system, pairs, warmup=warmup, repeats=repeats,
                     trace=trace)
        for system in systems
    ]
