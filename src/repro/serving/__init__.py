"""Query serving: multi-tier caching, batching, admission control.

Production-shaped serving over one
:class:`~repro.qa.pipeline.HybridQAPipeline`:

* :mod:`.cache` — answer/plan/retrieval tiers over the shared
  :class:`~repro.caching.CostAwareLRU` primitive, sized in CostMeter
  work units, each entry checked against the store and pipeline
  versions it was made at (read on lookup; nothing pushes);
* :mod:`.scheduler` — deterministic micro-batches with single-flight
  deduplication and write barriers, byte-for-byte equal to sequential
  execution;
* :mod:`.admission` — per-session work budgets and queue-depth load
  shedding through the resilience layer's typed-abstention vocabulary
  (shedding never raises);
* :mod:`.server` — the :class:`~.server.QueryServer` composition root;
* :mod:`.workload` — the JSONL workload format the CLI's ``serve``
  subcommand consumes.

See ``docs/serving.md``; the subsystem's contracts (equality, warm
speedup, single-flight, invalidation, chaos safety) are pinned by
``tests/test_serving.py``.
"""

from .admission import (
    ANSWER_SYSTEM_SERVING, SHED_BUDGET, SHED_QUEUE, SHED_TENANT_QUOTA,
    SHED_TENANT_UNKNOWN, AdmissionController, AdmissionPolicy,
    shed_answer,
)
from .cache import (
    ANSWER_DEPS, KIND_SCHEMA, KIND_TEXT, PLAN_DEPS, RETRIEVAL_DEPS,
    AnswerCache, CachePolicy, Generations, MultiTierCache, PlanCache,
)
from .retrieval import CachingRetriever
from .scheduler import (
    BatchScheduler, ServeRequest, ServeResult, normalize_question,
)
from .server import QueryServer
from .workload import (
    OPS, load_workload, parse_workload, render_jsonl,
    repeated_questions, request_from_record,
)

__all__ = [
    "ANSWER_SYSTEM_SERVING", "SHED_BUDGET", "SHED_QUEUE",
    "SHED_TENANT_QUOTA", "SHED_TENANT_UNKNOWN", "AdmissionController",
    "AdmissionPolicy", "shed_answer",
    "ANSWER_DEPS", "KIND_SCHEMA", "KIND_TEXT", "PLAN_DEPS",
    "RETRIEVAL_DEPS",
    "AnswerCache", "CachePolicy", "Generations", "MultiTierCache",
    "PlanCache",
    "CachingRetriever",
    "BatchScheduler", "ServeRequest",
    "ServeResult", "normalize_question",
    "QueryServer",
    "OPS", "load_workload", "parse_workload", "render_jsonl",
    "repeated_questions", "request_from_record",
]
