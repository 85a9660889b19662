"""Serving — cold vs warm throughput and cache hit rates.

The serving subsystem's performance claim: on a repeated-question
workload, a warm multi-tier cache answers at least 3x cheaper (in
CostMeter work units) than the cold pass, on both benchmark domains.

Each run serves the same repeated-question workload twice through one
:class:`~repro.serving.QueryServer` — the first pass populates every
tier (cold), the second replays against them (warm) — and records work
units, wall time, per-tier hit rates, and the speedup ratios. Besides
the usual markdown table the run emits ``benchmarks/out/
BENCH_serving.json``, a canonical machine-readable artifact so future
PRs can track the serving-perf trajectory.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.bench import (
    HealthSpec, LakeSpec, generate_ecommerce_lake, generate_healthcare_lake,
    render_table,
)
from repro.bench.runner import build_hybrid_system
from repro.resilience import work_now
from repro.serving import CachePolicy, QueryServer, repeated_questions

from _common import OUT_DIR, emit

SEED = 13
REPEATS = 2  # rounds of the question list inside one pass
RESULTS = []


def build_lake(domain):
    if domain == "ecommerce":
        return generate_ecommerce_lake(LakeSpec(n_products=6, seed=SEED))
    return generate_healthcare_lake(HealthSpec(n_drugs=5, n_patients=16,
                                               seed=SEED))


def serve_pass(server, workload):
    meter = server.pipeline.meter
    started_work = work_now(meter)
    started_wall = time.perf_counter()
    results = server.serve(workload)
    wall = time.perf_counter() - started_wall
    work = work_now(meter) - started_work
    return results, work, wall


def hit_rate(counters):
    total = counters["hits"] + counters["misses"]
    return counters["hits"] / total if total else 0.0


#: "full" is the headline configuration; the second drops the answer
#: tier so warm traffic actually reaches the plan/retrieval tiers and
#: their hit rates become visible instead of being absorbed upstream.
POLICIES = ("full", "plan,retrieval")


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("domain", ["ecommerce", "healthcare"])
def test_serving_cold_vs_warm(benchmark, domain, policy):
    """One domain/policy cold-warm comparison (3x floor on 'full')."""
    lake = build_lake(domain)
    questions = [pair.question for pair in lake.qa_pairs(per_kind=1)]
    workload = repeated_questions(questions, repeats=REPEATS)
    server = QueryServer(build_hybrid_system(lake, seed=SEED)[1],
                         policy=CachePolicy.from_string(policy),
                         batch_size=8)

    cold_results, cold_work, cold_wall = serve_pass(server, workload)
    warm_results, warm_work, warm_wall = serve_pass(server, workload)

    cold_texts = [r.answer.text for r in cold_results]
    warm_texts = [r.answer.text for r in warm_results]
    assert cold_texts == warm_texts, "warm answers diverged from cold"

    stats = server.stats()["cache"]
    work_speedup = cold_work / warm_work if warm_work else float("inf")

    def rate(tier):
        return (round(hit_rate(stats[tier]), 3)
                if tier in stats else None)

    row = {
        "domain": domain,
        "policy": policy,
        "questions": len(questions),
        "asks_per_pass": len(workload),
        "cold_work": cold_work,
        "warm_work": warm_work,
        "work_speedup": round(min(work_speedup, 9999.0), 1),
        "cold_wall_ms": round(cold_wall * 1000.0, 1),
        "warm_wall_ms": round(warm_wall * 1000.0, 1),
        "answer_hit_rate": rate("answer"),
        "plan_hit_rate": rate("plan"),
        "retrieval_hit_rate": rate("retrieval"),
    }
    RESULTS.append(row)

    if policy == "full":
        # The acceptance floor: >= 3x warm-over-cold on repeats.
        assert warm_work * 3 <= cold_work, (
            "warm pass only %.1fx cheaper than cold" % work_speedup)
        assert hit_rate(stats["answer"]) > 0.0
    else:
        # Lower tiers must carry reuse once the answer tier is off.
        assert warm_work < cold_work
        assert hit_rate(stats["plan"]) > 0.0

    benchmark(lambda: None)


def test_serving_report(benchmark):
    """Render the table and the canonical BENCH_serving.json artifact."""
    benchmark(lambda: None)  # keep the report under --benchmark-only
    assert RESULTS, "parametrized serving runs must execute first"
    rows = sorted(RESULTS, key=lambda r: (r["domain"], r["policy"]))
    emit("serving", render_table(
        rows, title="Serving — cold vs warm throughput"
    ))
    payload = {
        "bench": "serving",
        "seed": SEED,
        "repeats": REPEATS,
        "runs": rows,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "BENCH_serving.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for row in rows:
        if row["policy"] == "full":
            assert row["work_speedup"] >= 3.0
