"""Tests for the closed-loop load harness (repro.loadgen).

The load-bearing properties: spec and SLO parsing fail loudly on
malformed input (mirroring the serving workload parser); percentiles
are exact nearest-rank over the full sample; workload generation and
the full harness are deterministic — the same spec at the same seed
produces byte-identical reports; SLO gates evaluate in both
directions and refuse to gate on missing metrics.
"""

import json

import pytest

from repro.errors import LoadGenError
from repro.loadgen import (
    GATES, LoadSpec, SLOSpec, bench_payload, evaluate, generate_workload,
    nearest_rank, run_load, to_json, zipf_weights,
)

SPEC = {
    "name": "t", "domain": "ecommerce", "asks": 24, "seed": 17,
    "sessions": 3, "skew": 1.0, "burst": 6, "think_work": 5,
}

QUESTIONS = ["q%d" % i for i in range(6)]


# ----------------------------------------------------------------------
# Exact nearest-rank percentiles
# ----------------------------------------------------------------------

class TestNearestRank:
    def test_small_sample_p50_p95_p99(self):
        sample = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
        assert nearest_rank(sample, 0.50) == 50
        assert nearest_rank(sample, 0.95) == 100
        assert nearest_rank(sample, 0.99) == 100
        assert nearest_rank(sample, 0.90) == 90

    def test_result_is_always_an_observed_value(self):
        sample = [3, 1, 4, 1, 5]
        for q in (0.0, 0.25, 0.5, 0.75, 0.9, 1.0):
            assert nearest_rank(sample, q) in sample

    def test_tied_sample(self):
        assert nearest_rank([7, 7, 7, 7], 0.5) == 7
        assert nearest_rank([0, 0, 0, 100], 0.75) == 0
        assert nearest_rank([0, 0, 0, 100], 0.76) == 100

    def test_single_element(self):
        for q in (0.0, 0.5, 0.99, 1.0):
            assert nearest_rank([42], q) == 42

    def test_ints_stay_ints(self):
        value = nearest_rank([1, 2, 3], 0.5)
        assert value == 2 and isinstance(value, int)

    def test_unsorted_input_is_sorted_first(self):
        assert nearest_rank([9, 1, 5], 0.5) == 5

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            nearest_rank([], 0.5)

    def test_out_of_range_quantile_raises(self):
        with pytest.raises(ValueError):
            nearest_rank([1], 1.5)
        with pytest.raises(ValueError):
            nearest_rank([1], -0.1)


# ----------------------------------------------------------------------
# Spec parsing fails loudly
# ----------------------------------------------------------------------

class TestLoadSpecParsing:
    def test_minimal_spec_defaults(self):
        spec = LoadSpec.from_dict(
            {"name": "m", "domain": "healthcare", "asks": 8})
        assert (spec.stack.seed, spec.sessions, spec.burst) == (17, 4, 8)
        assert spec.arrival == "fixed" and spec.writes == ()

    def test_unknown_key_raises(self):
        with pytest.raises(LoadGenError, match="unknown spec key"):
            LoadSpec.from_dict(dict(SPEC, qps=100))

    def test_missing_required_key_raises(self):
        with pytest.raises(LoadGenError, match="missing required"):
            LoadSpec.from_dict({"name": "x", "domain": "ecommerce"})

    def test_unknown_domain_raises(self):
        with pytest.raises(LoadGenError, match="domain"):
            LoadSpec.from_dict(dict(SPEC, domain="finance"))

    def test_unknown_arrival_raises(self):
        with pytest.raises(LoadGenError, match="arrival"):
            LoadSpec.from_dict(dict(SPEC, arrival="bursty"))

    def test_negative_values_raise(self):
        with pytest.raises(LoadGenError, match="asks"):
            LoadSpec.from_dict(dict(SPEC, asks=0))
        with pytest.raises(LoadGenError, match="think_work"):
            LoadSpec.from_dict(dict(SPEC, think_work=-1))
        with pytest.raises(LoadGenError, match="skew"):
            LoadSpec.from_dict(dict(SPEC, skew=-0.5))

    def test_bool_is_not_an_integer(self):
        with pytest.raises(LoadGenError):
            LoadSpec.from_dict(dict(SPEC, asks=True))

    def test_ask_as_write_raises(self):
        with pytest.raises(LoadGenError, match="must mutate"):
            LoadSpec.from_dict(dict(
                SPEC, write_every=4,
                writes=[{"op": "ask", "question": "q"}],
            ))

    def test_invalid_write_record_raises(self):
        with pytest.raises(LoadGenError):
            LoadSpec.from_dict(dict(
                SPEC, write_every=4, writes=[{"op": "drop_tables"}],
            ))

    def test_write_every_without_writes_raises(self):
        with pytest.raises(LoadGenError, match="no writes"):
            LoadSpec.from_dict(dict(SPEC, write_every=4))

    def test_bad_json_raises(self):
        with pytest.raises(LoadGenError, match="not valid JSON"):
            LoadSpec.from_json("{nope}")

    def test_non_object_raises(self):
        with pytest.raises(LoadGenError, match="JSON object"):
            LoadSpec.from_json('["a"]')

    def test_to_dict_roundtrip(self):
        spec = LoadSpec.from_dict(dict(SPEC))
        assert LoadSpec.from_dict(spec.to_dict()) == spec

    def test_shards_defaults_to_one(self):
        spec = LoadSpec.from_dict(dict(SPEC))
        assert spec.stack.shards == 1

    def test_shards_parsed_and_echoed(self):
        spec = LoadSpec.from_dict(dict(SPEC, shards=4))
        assert spec.stack.shards == 4
        assert spec.to_dict()["shards"] == 4

    def test_shards_must_be_positive_integer(self):
        with pytest.raises(LoadGenError, match="shards"):
            LoadSpec.from_dict(dict(SPEC, shards=0))
        with pytest.raises(LoadGenError, match="shards"):
            LoadSpec.from_dict(dict(SPEC, shards="2"))


# ----------------------------------------------------------------------
# SLO parsing and gate evaluation
# ----------------------------------------------------------------------

class TestSLOSpec:
    def test_unknown_gate_raises(self):
        with pytest.raises(LoadGenError, match="unknown SLO key"):
            SLOSpec.from_dict({"p42_work_max": 1})

    def test_negative_threshold_raises(self):
        with pytest.raises(LoadGenError, match="non-negative"):
            SLOSpec.from_dict({"p95_work_max": -1})

    def test_rate_above_one_raises(self):
        with pytest.raises(LoadGenError, match=r"\[0, 1\]"):
            SLOSpec.from_dict({"error_rate_max": 1.5})

    def test_non_numeric_threshold_raises(self):
        with pytest.raises(LoadGenError, match="must be a number"):
            SLOSpec.from_dict({"p95_work_max": "fast"})
        with pytest.raises(LoadGenError, match="must be a number"):
            SLOSpec.from_dict({"p95_work_max": True})

    def test_empty_spec_raises(self):
        with pytest.raises(LoadGenError, match="no gates"):
            SLOSpec.from_dict({"name": "empty"})

    def test_evaluate_both_directions(self):
        slo = SLOSpec.from_dict({
            "p95_work_max": 100, "answer_hit_rate_min": 0.5,
        })
        verdict = evaluate(
            {"work_p95": 100, "answer_hit_rate": 0.4}, slo)
        by_gate = {r.gate: r.passed for r in verdict.results}
        assert by_gate == {"p95_work_max": True,
                           "answer_hit_rate_min": False}
        assert not verdict.passed
        assert [r.gate for r in verdict.failures()] == [
            "answer_hit_rate_min"]

    def test_evaluate_missing_metric_raises(self):
        slo = SLOSpec.from_dict({"p99_work_max": 10})
        with pytest.raises(LoadGenError, match="absent"):
            evaluate({"work_p50": 1}, slo)

    def test_evaluate_none_slo_is_ungated(self):
        assert evaluate({"anything": 1}, None) is None

    def test_every_gate_has_a_metric_and_direction(self):
        for gate, (metric, direction, kind) in GATES.items():
            assert direction in ("max", "min")
            assert kind in ("work", "rate")
            assert metric


# ----------------------------------------------------------------------
# Deterministic workload generation
# ----------------------------------------------------------------------

class TestGeneration:
    def test_same_seed_same_workload(self):
        spec = LoadSpec.from_dict(dict(SPEC, arrival="poisson"))
        assert generate_workload(spec, QUESTIONS) == generate_workload(
            spec, QUESTIONS)

    def test_different_seed_different_workload(self):
        a = LoadSpec.from_dict(dict(SPEC))
        b = LoadSpec.from_dict(dict(SPEC, seed=99))
        assert generate_workload(a, QUESTIONS) != generate_workload(
            b, QUESTIONS)

    def test_burst_and_count_shape(self):
        spec = LoadSpec.from_dict(dict(SPEC))
        bursts = generate_workload(spec, QUESTIONS)
        requests = [r for burst in bursts for r in burst.requests]
        assert len(requests) == spec.asks
        assert all(len(b.requests) <= spec.burst for b in bursts)
        assert all(b.gap == spec.think_work for b in bursts)
        sessions = {r.session for r in requests}
        assert sessions <= {"s00", "s01", "s02"}

    def test_zipf_skew_concentrates_on_hot_ranks(self):
        flat = LoadSpec.from_dict(dict(SPEC, asks=400, skew=0.0))
        hot = LoadSpec.from_dict(dict(SPEC, asks=400, skew=2.0))

        def rank0_share(spec):
            requests = [r for b in generate_workload(spec, QUESTIONS)
                        for r in b.requests]
            count = sum(1 for r in requests
                        if r.payload["question"] == QUESTIONS[0])
            return count / len(requests)

        assert rank0_share(hot) > 2 * rank0_share(flat)

    def test_zipf_weights_shape(self):
        assert zipf_weights(3, 0.0) == [1.0, 1.0, 1.0]
        weights = zipf_weights(4, 1.0)
        assert weights == sorted(weights, reverse=True)
        with pytest.raises(LoadGenError):
            zipf_weights(0, 1.0)

    def test_writes_interleave_as_barriers(self):
        spec = LoadSpec.from_dict(dict(
            SPEC, write_every=6,
            writes=[{"op": "sql", "statement": "SELECT 1"}],
        ))
        requests = [r for b in generate_workload(spec, QUESTIONS)
                    for r in b.requests]
        ops = [r.op for r in requests]
        assert ops.count("sql") == spec.asks // 6
        # A write follows every 6th ask exactly.
        asks_seen = 0
        for op in ops:
            if op == "ask":
                asks_seen += 1
            else:
                assert asks_seen % 6 == 0

    def test_empty_question_pool_raises(self):
        spec = LoadSpec.from_dict(dict(SPEC))
        with pytest.raises(LoadGenError, match="empty"):
            generate_workload(spec, [])


# ----------------------------------------------------------------------
# End-to-end harness determinism and gating
# ----------------------------------------------------------------------

class TestHarness:
    def test_two_runs_are_byte_identical(self):
        spec = LoadSpec.from_dict(dict(SPEC, arrival="poisson"))
        first = run_load(spec)
        second = run_load(spec)
        assert to_json(bench_payload([first])) == to_json(
            bench_payload([second]))
        assert "work_p95" in first.measurements
        assert first.measurements["asks"] == spec.asks

    def test_slo_breach_is_reported_not_raised(self):
        spec = LoadSpec.from_dict(dict(SPEC, asks=8))
        # think_work > 0 guarantees total_work > 0, so this must breach.
        slo = SLOSpec.from_dict({"total_work_max": 0})
        report = run_load(spec, slo)
        assert report.verdict is not None
        assert not report.passed
        assert [r.gate for r in report.verdict.failures()] == [
            "total_work_max"]
        payload = bench_payload([report])
        assert payload["passed"] is False


# ----------------------------------------------------------------------
# Tenant mix, tenant SLO tiers, per-tenant measurements
# ----------------------------------------------------------------------

TENANT_REGISTRY = {"tenants": [
    {"id": "greedy", "quota": {"capacity": 10, "refill": 0.0}},
    {"id": "quiet"},
]}


class TestTenantMix:
    def test_mix_without_registry_fails_closed(self):
        with pytest.raises(LoadGenError):
            LoadSpec.from_dict(dict(SPEC, tenants={"acme": 1}))

    def test_mix_naming_unregistered_tenant_raises(self):
        with pytest.raises(LoadGenError):
            LoadSpec.from_dict(dict(
                SPEC, tenants={"stranger": 1},
                tenant_registry=TENANT_REGISTRY))

    def test_bad_weights_raise(self):
        for weights in ({}, {"greedy": 0}, {"greedy": "lots"},
                        {"greedy": True}):
            with pytest.raises(LoadGenError):
                LoadSpec.from_dict(dict(
                    SPEC, tenants=weights,
                    tenant_registry=TENANT_REGISTRY))

    def test_invalid_embedded_registry_raises(self):
        with pytest.raises(LoadGenError):
            LoadSpec.from_dict(dict(
                SPEC, tenant_registry={"tenants": [{"id": "x",
                                                    "tier": "gold"}]}))

    def test_roundtrip_and_seeded_tenant_draw(self):
        spec = LoadSpec.from_dict(dict(
            SPEC, tenants={"greedy": 3, "quiet": 1},
            tenant_registry=TENANT_REGISTRY))
        assert LoadSpec.from_dict(spec.to_dict()) == spec
        first = generate_workload(spec, QUESTIONS)
        second = generate_workload(spec, QUESTIONS)
        assert first == second
        tenants = [r.tenant for b in first for r in b.requests
                   if r.op == "ask"]
        assert set(tenants) == {"greedy", "quiet"}
        assert tenants.count("greedy") > tenants.count("quiet")

    def test_untenanted_spec_draws_default_only(self):
        spec = LoadSpec.from_dict(dict(SPEC))
        tenants = {r.tenant for b in generate_workload(spec, QUESTIONS)
                   for r in b.requests}
        assert tenants == {"default"}


class TestTenantSLOTiers:
    def test_tenant_tiers_parse_and_roundtrip(self):
        slo = SLOSpec.from_dict({
            "name": "tiers",
            "error_rate_max": 0.0,
            "tenants": {"greedy": {"shed_rate_min": 0.2},
                        "quiet": {"shed_rate_max": 0.0}},
        })
        assert SLOSpec.from_dict(slo.to_dict()) == slo

    def test_empty_tier_and_unknown_tier_gate_raise(self):
        with pytest.raises(LoadGenError):
            SLOSpec.from_dict({"tenants": {"greedy": {}}})
        with pytest.raises(LoadGenError):
            SLOSpec.from_dict({"tenants": {"greedy": {"nope": 1}}})

    def test_tier_gates_read_prefixed_metrics(self):
        slo = SLOSpec.from_dict({
            "tenants": {"greedy": {"shed_rate_min": 0.2},
                        "quiet": {"shed_rate_max": 0.0}},
        })
        report = evaluate({"tenant.greedy.shed_rate": 0.5,
                           "tenant.quiet.shed_rate": 0.0}, slo)
        assert report.passed
        labels = [r.gate for r in report.results]
        assert labels == ["tenants.greedy.shed_rate_min",
                          "tenants.quiet.shed_rate_max"]
        report = evaluate({"tenant.greedy.shed_rate": 0.0,
                           "tenant.quiet.shed_rate": 0.0}, slo)
        assert [r.gate for r in report.failures()] == [
            "tenants.greedy.shed_rate_min"]

    def test_tier_on_unmeasured_tenant_raises(self):
        slo = SLOSpec.from_dict(
            {"tenants": {"ghost": {"shed_rate_max": 0.0}}})
        with pytest.raises(LoadGenError):
            evaluate({"shed_rate": 0.0}, slo)


class TestTenantHarness:
    def test_quota_isolation_end_to_end(self):
        spec = LoadSpec.from_dict(dict(
            SPEC, tenants={"greedy": 2, "quiet": 1},
            tenant_registry=TENANT_REGISTRY))
        slo = SLOSpec.from_dict({
            "error_rate_max": 0.0,
            "tenants": {"greedy": {"shed_rate_min": 0.1},
                        "quiet": {"shed_rate_max": 0.0}},
        })
        report = run_load(spec, slo)
        m = report.measurements
        assert m["tenant.greedy.asks"] + m["tenant.quiet.asks"] \
            == m["asks"]
        assert m["tenant.greedy.shed"] > 0
        assert m["tenant.quiet.shed"] == 0
        assert report.passed, report.verdict.render()

    def test_untenanted_measurements_have_no_tenant_keys(self):
        report = run_load(LoadSpec.from_dict(dict(SPEC)))
        assert not any(k.startswith("tenant.")
                       for k in report.measurements)


# ----------------------------------------------------------------------
# CLI exit codes
# ----------------------------------------------------------------------

class TestLoadCli:
    def write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_pass_breach_and_config_error_codes(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = self.write(tmp_path, "spec.json",
                               dict(SPEC, asks=8))
        ok_path = self.write(tmp_path, "ok.json",
                             {"abstain_rate_max": 1.0})
        tight_path = self.write(tmp_path, "tight.json",
                                {"total_work_max": 0})
        out_path = tmp_path / "report.json"

        assert main(["load", "--spec", spec_path, "--slo", ok_path,
                     "--out", str(out_path)]) == 0
        assert json.loads(out_path.read_text())["passed"] is True
        assert "PASS" in capsys.readouterr().out

        assert main(["load", "--spec", spec_path,
                     "--slo", tight_path]) == 1
        assert "FAIL" in capsys.readouterr().out

        bad_path = self.write(tmp_path, "bad.json",
                              dict(SPEC, domain="finance"))
        assert main(["load", "--spec", bad_path]) == 2
        assert "domain" in capsys.readouterr().err

    @pytest.mark.parametrize("faults", [
        {"retry": {"max_attempts": "many"}},
        {"seed": 1, "backends": {"slm": {"rate": "high"}}},
        {"budget": -1},
        ["not", "an", "object"],
        # Unknown keys at every level, and backends nothing guards.
        {"seed": 17, "fault_rate": 0.1, "max_retries": 2},
        {"backends": {"slm": {"rate": 0.1, "speed": 2}}},
        {"backends": {"slm": {"kinds": {"meteor": 1.0}}}},
        {"retry": {"max_attempts": 3, "jitter": 1}},
        {"breaker": {"cooldown": 3, "halfopen": 1}},
        {"backends": {"database": {"rate": 0.1}}},
        {"backends": {"shard:1": {"rate": 0.1}}},
    ])
    def test_malformed_faults_are_a_config_error(self, tmp_path, capsys,
                                                 faults):
        from repro.cli import main

        with pytest.raises(LoadGenError, match="faults"):
            LoadSpec.from_dict(dict(SPEC, faults=faults))
        spec_path = self.write(tmp_path, "spec.json",
                               dict(SPEC, asks=8, faults=faults))
        assert main(["load", "--spec", spec_path]) == 2
        assert "error: faults" in capsys.readouterr().err

    def test_bad_stack_values_in_a_spec_exit_with_one_line(self, tmp_path,
                                                           capsys):
        from repro.cli import main

        spec_path = self.write(tmp_path, "shards.json",
                               dict(SPEC, asks=8, shards=0))
        assert main(["load", "--spec", spec_path]) == 2
        assert capsys.readouterr().err == (
            "error: shards must be positive, got 0\n")
        registry = {"tenants": [{"id": "x", "tier": "gold"}]}
        spec_path = self.write(tmp_path, "tenants.json",
                               dict(SPEC, asks=8, tenant_registry=registry))
        assert main(["load", "--spec", spec_path]) == 2
        assert "tenant_registry is invalid" in capsys.readouterr().err
        assert main(["load", "--spec", str(tmp_path / "missing.json")]) == 2
        assert "--spec" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Committed fault plans are not vacuous
# ----------------------------------------------------------------------

def _committed_specs_with(key):
    import glob
    import os

    specs = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "benchmarks", "specs", "load_*.json")
    found = []
    for path in sorted(glob.glob(specs)):
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        if key in data:
            found.append(pytest.param(data, id=os.path.basename(path)))
    return found


class TestCommittedFaultPlansFire:
    """A load spec's ``faults`` section must inject faults: a plan no
    backend draws from gates a clean run under a chaos name."""

    def test_every_fault_section_is_found(self):
        assert len(_committed_specs_with("faults")) == 3

    @pytest.mark.parametrize("data", _committed_specs_with("faults"))
    def test_its_questions_draw_faults(self, data):
        from repro.bench.runner import build_stack

        spec = LoadSpec.from_dict(data)
        assert spec.stack.resilience.fault_plan is not None
        lake, pipeline, _ = build_stack(spec.stack, serve=False)
        for pair in lake.qa_pairs(per_kind=spec.questions_per_kind):
            pipeline.answer(pair.question)
        assert pipeline.resilience.injector.log


# ----------------------------------------------------------------------
# Committed spec writes
# ----------------------------------------------------------------------

@pytest.mark.xfail(strict=True, reason=(
    "every committed spec that writes repeats one fixed-key INSERT "
    "(99001): only the first applies, the rest fail with a duplicate "
    "primary key, and the load report still counts them under writes"))
@pytest.mark.parametrize("data", _committed_specs_with("writes"))
def test_every_committed_spec_write_applies(data):
    """Each write a committed spec generates changes the lake (the
    fault plan is left out: injected faults may fail a write)."""
    import dataclasses

    from repro.bench.runner import build_stack

    spec = LoadSpec.from_dict(data)
    lake, _pipeline, server = build_stack(
        dataclasses.replace(spec.stack, faults=None))
    questions = [pair.question for pair in
                 lake.qa_pairs(per_kind=spec.questions_per_kind)]
    writes = [request
              for burst in generate_workload(spec, questions)
              for request in burst.requests if request.op != "ask"]
    assert writes
    details = [result.detail for result in server.serve(writes)]
    assert all(detail.startswith("ok") for detail in details), details
