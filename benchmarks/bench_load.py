"""Load — closed-loop SLO-gated load runs on both benchmark domains.

The serving layer's scale claim, gated: each committed load spec under
``benchmarks/specs/`` is expanded into a deterministic many-session
workload, driven through the full :class:`~repro.serving.QueryServer`
stack by :func:`repro.loadgen.run_load`, and evaluated against its
committed SLO spec. A breached gate fails the suite — the same verdict
``repro load`` gives in CI.

Besides the markdown table the run emits
``benchmarks/out/BENCH_load.json`` via the loadgen report module; the
payload is canonical (work-clock metrics only, sorted keys) so two
runs at the same seed produce byte-identical artifacts and a diff
between commits is a real behavioural delta.
"""

from __future__ import annotations

import os

import pytest

from repro.bench import render_table
from repro.bench.runner import read_document
from repro.loadgen import LoadSpec, SLOSpec, bench_payload, run_load, \
    write_report

from _common import OUT_DIR, emit

SPEC_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "specs")

#: (load spec, SLO spec) pairs gated by this bench. The chaos pair
#: runs the same e-commerce mix under a 10% fault plan and must still
#: clear the relaxed degraded-mode tier.
PAIRS = (
    ("load_ecommerce.json", "slo_ecommerce.json"),
    ("load_healthcare.json", "slo_healthcare.json"),
    ("load_ecommerce_chaos.json", "slo_ecommerce_chaos.json"),
    ("load_ecommerce_tenants.json", "slo_ecommerce_tenants.json"),
)

RESULTS = []


@pytest.mark.parametrize("spec_name,slo_name", PAIRS)
def test_load_slo(benchmark, spec_name, slo_name):
    """One committed spec end to end; every SLO gate must pass."""
    spec = LoadSpec.from_dict(
        read_document(os.path.join(SPEC_DIR, spec_name), "--spec"))
    slo = SLOSpec.load(os.path.join(SPEC_DIR, slo_name))
    report = run_load(spec, slo)
    RESULTS.append(report)
    assert report.verdict is not None
    assert report.passed, "SLO breached:\n" + report.verdict.render()
    benchmark(lambda: None)


def test_load_report(benchmark):
    """Render the table and the canonical BENCH_load.json artifact."""
    benchmark(lambda: None)  # keep the report under --benchmark-only
    assert RESULTS, "parametrized load runs must execute first"
    rows = [
        {
            "spec": report.spec.name,
            "domain": report.spec.stack.domain,
            "asks": report.measurements["asks"],
            "served": report.measurements["served"],
            "shed": report.measurements["shed"],
            "p50_work": report.measurements.get("work_p50"),
            "p95_work": report.measurements.get("work_p95"),
            "p99_work": report.measurements.get("work_p99"),
            "total_work": report.measurements["total_work"],
            "error_rate": report.measurements["error_rate"],
            "abstain_rate": report.measurements["abstain_rate"],
            "answer_hit_rate": report.measurements["answer_hit_rate"],
            "slo": "PASS" if report.passed else "FAIL",
        }
        for report in sorted(RESULTS,
                             key=lambda r: (r.spec.stack.domain, r.spec.name))
    ]
    emit("load", render_table(
        rows, title="Load — SLO-gated closed-loop runs"
    ))
    path = write_report(os.path.join(OUT_DIR, "BENCH_load.json"),
                        bench_payload(RESULTS))
    assert os.path.exists(path)
    assert all(row["slo"] == "PASS" for row in rows)
