"""Closed-loop load generation and SLO gating for the serving stack.

The verification substrate for the serving layer's scale claims:

* :mod:`.spec` — seeded workload specs (session mixes, Zipf question
  skew, interleaved writer barriers, work-clock arrival schedules,
  optional fault plans) expanded into deterministic request bursts
  layered on the :mod:`repro.serving.workload` vocabulary;
* :mod:`.slo` — declarative SLO gates (P50/P95/P99 work latency,
  error/abstention/shed ceilings, cache-hit floors) evaluated with
  exact nearest-rank percentiles;
* :mod:`.harness` — :func:`~.harness.run_load` drives the full
  :class:`~repro.serving.QueryServer` stack end to end and folds the
  results into the flat measurement dict the gates read;
* :mod:`.report` — the canonical byte-stable ``BENCH_load.json``
  payload;
* :mod:`.cli` — ``python -m repro.loadgen --spec S --slo L`` (also
  surfaced as ``repro load``), exit code 1 on any gate breach — the
  hook that lets CI fail the build when the hot path regresses.

Everything is measured on the CostMeter work clock — never wall time —
so two runs of one spec at one seed produce byte-identical reports.
See ``docs/serving.md`` ("Load testing & SLOs").
"""

from .harness import LoadReport, THINK_WORK, nearest_rank, run_load
from .report import bench_payload, run_payload, to_json, write_report
from .slo import GATES, GateResult, SLOReport, SLOSpec, evaluate
from .spec import (
    Burst, LoadSpec, SPEC_KEYS, generate_workload, zipf_weights,
)

__all__ = [
    "LoadReport", "THINK_WORK", "nearest_rank", "run_load",
    "bench_payload", "run_payload", "to_json", "write_report",
    "GATES", "GateResult", "SLOReport", "SLOSpec", "evaluate",
    "Burst", "LoadSpec", "SPEC_KEYS", "generate_workload",
    "zipf_weights",
]
