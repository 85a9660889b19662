"""Deterministic micro-batch scheduling with single-flight dedup.

The scheduler turns an ordered request stream into micro-batches of
questions separated by write barriers:

* consecutive ``ask`` requests buffer into batches of at most
  ``batch_size``;
* any write (``sql`` / ``add_doc`` / ``add_text``) flushes the pending
  batch first, then executes — so a question never observes a write
  that arrived after it, and always observes every write before it;
* within one batch, identical (normalized) questions are answered
  **once** and the result fanned out to every requester — single-flight
  deduplication. Riders share the leader's answer object: answers are
  frozen, so there is nothing to copy.

Because answering is read-only and the answer path is history
independent (see :meth:`repro.slm.generator.AnswerGenerator._call_rng`),
this reordering is semantics-preserving: the scheduled results are
byte-for-byte identical to answering the same stream one request at a
time. ``tests/test_serving.py`` asserts exactly that.

Admission control hooks in at two deterministic points: queue depth is
checked when a question enters the buffer (depth = questions admitted
since the last barrier), session budgets when its batch flushes
(spend updated after every batch, in request order).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..metering import CostMeter
from ..obs import span
from ..qa.answer import Answer
from ..resilience import work_now
from .admission import AdmissionController


def normalize_question(question: str) -> str:
    """Canonical question form: stripped, inner whitespace collapsed.

    Deliberately *not* case-folded: the answer path hashes the exact
    question string into its sampling RNG, so two casings are distinct
    queries and must not share a cache entry.
    """
    return " ".join(question.split())


@dataclass(frozen=True)
class ServeRequest:
    """One workload operation: a question or a store write.

    ``tenant`` names the :class:`~repro.tenancy.TenantContext` the
    request runs under; the permissive ``"default"`` keeps untenanted
    workloads byte-identical to before.
    """

    op: str  # "ask" | "sql" | "add_doc" | "add_text"
    payload: Dict[str, Any] = field(default_factory=dict)
    session: str = "default"
    tenant: str = "default"


@dataclass
class ServeResult:
    """The outcome of one :class:`ServeRequest`, in stream order.

    ``work`` is the request's own work-clock cost: the CostMeter delta
    around its computation. A dedup rider or answer-cache hit costs ~0,
    a shed request exactly 0 — the per-request latency sample the load
    harness aggregates into SLO percentiles.
    """

    index: int
    op: str
    session: str
    answer: Optional[Answer] = None
    detail: str = ""
    shed: bool = False
    deduped: bool = False
    work: int = 0
    tenant: str = "default"


class BatchScheduler:
    """Run request streams through micro-batches and write barriers.

    *answer_fn* takes ``(question, tenant_id)``: single-flight dedup
    keys on that same pair, so identical questions from **different**
    tenants never merge — each tenant's answer is computed under its
    own governance, a structural guarantee rather than a cache policy.
    """

    def __init__(self, answer_fn: Callable[[str, str], Answer],
                 write_fn: Callable[[ServeRequest], str],
                 meter: CostMeter, admission: AdmissionController,
                 batch_size: int = 8):
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self._answer_fn = answer_fn
        self._write_fn = write_fn
        self._meter = meter
        self._batch_size = batch_size
        self._admission = admission
        self.n_batches = 0
        self.n_asks = 0
        self.n_deduped = 0
        self.n_shed = 0
        self.n_writes = 0
        #: Batch size → how many batches had it (at most
        #: ``batch_size`` keys, however long the server runs).
        self.batch_sizes: Counter = Counter()

    def run(self, requests: List[ServeRequest]) -> List[ServeResult]:
        """Execute the stream; results align with the request order."""
        results: List[Optional[ServeResult]] = [None] * len(requests)
        buffer: List[Tuple[int, ServeRequest, str]] = []
        depth = 0
        for index, request in enumerate(requests):
            if request.op == "ask":
                self.n_asks += 1
                shed = self._admission.over_depth(depth)
                if shed is not None:
                    self.n_shed += 1
                    results[index] = ServeResult(
                        index, request.op, request.session,
                        answer=shed, shed=True, tenant=request.tenant,
                    )
                    continue
                depth += 1
                question = normalize_question(
                    str(request.payload.get("question", ""))
                )
                buffer.append((index, request, question))
                if len(buffer) >= self._batch_size:
                    self._flush(buffer, results)
                    buffer = []
            else:
                self._flush(buffer, results)
                buffer = []
                depth = 0
                self.n_writes += 1
                started = work_now(self._meter)
                detail = self._write_fn(request)
                results[index] = ServeResult(
                    index, request.op, request.session, detail=detail,
                    work=work_now(self._meter) - started,
                    tenant=request.tenant,
                )
        self._flush(buffer, results)
        return [r for r in results if r is not None]

    def _flush(self, buffer: List[Tuple[int, ServeRequest, str]],
               results: List[Optional[ServeResult]]) -> None:
        if not buffer:
            return
        self.n_batches += 1
        self.batch_sizes[len(buffer)] += 1
        with span("serving.batch") as sp:
            sp.set("size", len(buffer))
            answered: Dict[Tuple[str, str], Answer] = {}
            for index, request, question in buffer:
                shed = self._admission.admit(request.session,
                                             tenant=request.tenant)
                if shed is not None:
                    self.n_shed += 1
                    results[index] = ServeResult(
                        index, request.op, request.session,
                        answer=shed, shed=True, tenant=request.tenant,
                    )
                    continue
                # Single-flight merges only same-tenant duplicates: two
                # tenants asking the same words are different queries.
                flight_key = (request.tenant, question)
                deduped = flight_key in answered
                if deduped:
                    # Single-flight: the in-batch duplicate rides the
                    # first requester's computation and costs nothing.
                    self.n_deduped += 1
                    answer = answered[flight_key]
                    work = 0
                else:
                    started = work_now(self._meter)
                    answer = self._answer_fn(question, request.tenant)
                    work = work_now(self._meter) - started
                    answered[flight_key] = answer
                self._admission.charge(request.session, work,
                                       tenant=request.tenant)
                results[index] = ServeResult(
                    index, request.op, request.session, answer=answer,
                    deduped=deduped, work=work, tenant=request.tenant,
                )
            sp.set("unique", len(answered))

    def stats(self) -> Dict[str, Any]:
        """Scheduler throughput counters plus the batch-size
        histogram (size → count)."""
        return {
            "batches": self.n_batches,
            "asks": self.n_asks,
            "deduped": self.n_deduped,
            "shed": self.n_shed,
            "writes": self.n_writes,
            "batch_sizes": dict(self.batch_sizes),
        }
