"""Experiment runner: build systems from a lake, run suites, collect rows.

The three E2/E6 systems are constructed here from the same lake:

* **hybrid** — the paper's full pipeline (graph index, topology
  retrieval, generated tables, federated routing);
* **text2sql** — Semantic Operator Synthesis over curated tables only;
* **rag** — dense-retrieval RAG over the unstructured text only.

Each system answers through one uniform callable so the harness can
score accuracy, abstention and metered cost identically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..metering import CostMeter
from ..obs import Tracer, aggregate_stages
from ..qa.answer import Answer
from ..qa.pipeline import HybridQAPipeline
from ..qa.tableqa import TableQAEngine
from ..qa.textqa import TextQAEngine
from ..resilience import ResilienceConfig
from ..retrieval.dense import DenseRetriever
from ..semql.catalog import SchemaCatalog
from ..slm.model import SLMConfig, SmallLanguageModel
from ..storage.relational.database import Database
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
    point (CLI, load harness, benches, smoke programs) stands it up.

    With ``n_shards > 1`` the stores are partitioned by entity key and
    queries scatter-gather over per-shard resilience guards; answers are
    byte-identical to the unsharded build. *isolate_arms* is handed to
    the pipeline (``False`` is the tests' sequential reference);
    *resilience* is installed after ``build()``, so faults only ever
    hit the answer path.
    """
    meter = CostMeter()
    sql, texts, docs, names, entity_table, generated = _lake_parts(lake)
    gazetteer = Gazetteer()
    gazetteer.add("VALUE", names)
    slm = SmallLanguageModel(SLMConfig(seed=seed), gazetteer=gazetteer,
                             meter=meter)
    pipeline = HybridQAPipeline(slm, meter=meter, n_shards=n_shards,
                                isolate_arms=isolate_arms)
    pipeline.add_sql(sql)
    pipeline.declare_entity_columns(entity_table, ["name"])
    pipeline.add_texts(texts)
    pipeline.add_documents(docs)
    pipeline.generate_table(generated)
    if isinstance(lake, EcommerceLake):
        pipeline.register_synonym("sales", "sales", "amount")
        pipeline.register_join("sales", "pid", "products", "pid")
        pipeline.register_join(generated, "subject", "products", "name_key")
        pipeline.register_display_column("products", "name")
    else:
        pipeline.register_synonym("efficacy", "trials", "efficacy")
        pipeline.register_synonym("enrolled", "trials", "enrolled")
        pipeline.register_join("trials", "did", "drugs", "did")
        pipeline.register_join(generated, "subject", "drugs", "name_key")
        pipeline.register_display_column("drugs", "name")
    pipeline.build()
    if resilience is not None:
        pipeline.enable_resilience(resilience)
    return QASystem("hybrid", pipeline.answer, meter), pipeline


def build_text2sql_system(lake) -> QASystem:
    """Text-to-SQL baseline: curated tables only, no text access."""
    meter = CostMeter()
    sql, _texts, _docs, _names, _entity_table, _generated = _lake_parts(lake)
    db = Database(meter=meter)
    for statement in sql:
        db.execute(statement)
    catalog = SchemaCatalog(db)
    if isinstance(lake, EcommerceLake):
        catalog.register_synonym("sales", "sales", "amount")
        catalog.register_join("sales", "pid", "products", "pid")
        catalog.register_display_column("products", "name")
    else:
        catalog.register_synonym("efficacy", "trials", "efficacy")
        catalog.register_synonym("enrolled", "trials", "enrolled")
        catalog.register_join("trials", "did", "drugs", "did")
        catalog.register_display_column("drugs", "name")
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
