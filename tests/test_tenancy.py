"""Tests for the multi-tenant governance layer (repro.tenancy).

The load-bearing properties: tenant registries parse declaratively and
fail closed on anything unknown; contexts are immutable; the
``check_tenancy`` static pass rejects every ungoverned or
foreign-governed plan; work-clock quota buckets are deterministic; a
tenant exhausting its quota receives typed abstentions — never an
exception — while other tenants keep being served.
"""

import dataclasses
import json

import pytest

from repro.bench import LakeSpec, generate_ecommerce_lake
from repro.bench.runner import build_hybrid_system
from repro.cli import main
from repro.errors import TenancyError
from repro.obs import Tracer
from repro.serving import QueryServer, ServeRequest
from repro.tenancy import (
    DEFAULT_TENANT, PERMISSIVE_DEFAULT, RLSRule, TenantContext,
    TenantRegistry, WorkClockBucket, check_tenancy, tenancy_errors,
    validate_registry_data,
)

SEED = 11

REGISTRY_DOC = {
    "tenants": [
        {
            "id": "acme",
            "description": "EU storefront",
            "tables": ["products", "sales", "review_facts"],
            "rls": [
                {"table": "sales", "column": "quarter", "op": "=",
                 "value": "Q1"},
            ],
            "documents": ["review-"],
            "quota": {"capacity": 600, "refill": 0.5},
            "tier": "standard",
        },
        {"id": "globex", "description": "permissive analytics"},
    ]
}


@pytest.fixture(scope="module")
def registry():
    return TenantRegistry.from_dict(REGISTRY_DOC)


@pytest.fixture(scope="module")
def lake():
    return generate_ecommerce_lake(LakeSpec(n_products=4, seed=SEED))


@pytest.fixture(scope="module")
def pipeline(lake):
    _system, pipeline = build_hybrid_system(lake, seed=SEED)
    return pipeline


# ----------------------------------------------------------------------
# Registry parsing and fail-closed resolution
# ----------------------------------------------------------------------

class TestRegistry:
    def test_parses_declarative_doc(self, registry):
        acme = registry.context("acme")
        assert acme.tables == ("products", "sales", "review_facts")
        assert acme.rls[0] == RLSRule("sales", "quarter", "=", "Q1")
        assert acme.doc_scopes == ("review-",)
        assert acme.quota_capacity == 600
        assert acme.quota_refill == 0.5
        assert not acme.is_permissive

    def test_default_tenant_always_resolves(self, registry):
        context = registry.context(DEFAULT_TENANT)
        assert context.is_permissive
        assert context == PERMISSIVE_DEFAULT

    def test_unknown_tenant_fails_closed(self, registry):
        with pytest.raises(TenancyError):
            registry.context("stranger")

    def test_context_is_immutable(self, registry):
        acme = registry.context("acme")
        with pytest.raises(dataclasses.FrozenInstanceError):
            acme.tables = ()

    def test_validate_collects_findings_without_raising(self):
        findings = validate_registry_data({
            "tenants": [
                {"id": "a"},
                {"id": "a"},
                {"id": "b", "rls": [{"table": "t"}]},
                {"nope": True},
            ],
            "extra": 1,
        })
        assert len(findings) == 4  # key, dup id, bad rule, bad record
        with pytest.raises(TenancyError):
            TenantRegistry.from_dict({"tenants": [{"id": "a"},
                                                  {"id": "a"}]})

    def test_rejects_unknown_rls_op_and_tier(self):
        with pytest.raises(TenancyError):
            RLSRule("sales", "quarter", "between", "Q1")
        with pytest.raises(TenancyError):
            TenantContext(tenant_id="x", tier="platinum")

    def test_visibility_helpers(self, registry):
        acme = registry.context("acme")
        assert acme.table_visible("sales")
        assert not acme.table_visible("secrets")
        assert acme.doc_visible("review-003")
        assert not acme.doc_visible("ship-003")
        globex = registry.context("globex")
        assert globex.table_visible("anything")
        assert globex.doc_visible("anything")

    def test_tokens_are_deterministic(self, registry):
        acme = registry.context("acme")
        assert acme.rls_token() == "sales.quarter = 'Q1'"
        assert acme.scope_token() == "review-"
        assert acme.cache_key("q") == ("acme", "q")


# ----------------------------------------------------------------------
# check_tenancy: the compile-time governance gate
# ----------------------------------------------------------------------

class TestCheckTenancy:
    def test_ungoverned_plan_rejected_for_governed_tenant(
            self, pipeline, registry):
        acme = registry.context("acme")
        plan = pipeline._executor.compile(
            "What is the total sales of the Quartz Monitor in Q3?")
        errors = tenancy_errors(check_tenancy(plan, acme))
        assert errors
        assert {e.code for e in errors} >= {"tenancy-missing-rls"}

    def test_rejected_plan_is_not_counted_as_run(self, pipeline, registry):
        acme = registry.context("acme")
        question = "What is the total sales of the Quartz Monitor in Q3?"
        executor = pipeline._executor  # noqa: SLF001
        denied = executor.compile(question)
        cleared = executor.compile(question, tenant=acme)
        tracer = Tracer()
        with tracer.activate():
            rejected = executor.execute(denied, tenant=acme)
        assert rejected.metadata["tenancy"] == "rejected"
        assert tracer.roots == []  # no stage ran, not even a span
        with tracer.activate():
            accepted = executor.execute(cleared, tenant=acme)
        assert "tenancy" not in accepted.metadata
        assert [root.name for root in tracer.roots] == ["qa.speculate"]

    def test_governed_plan_passes_its_own_gate(self, pipeline, registry):
        acme = registry.context("acme")
        plan = pipeline._executor.compile(
            "What is the total sales of the Quartz Monitor in Q3?",
            tenant=acme)
        assert tenancy_errors(check_tenancy(plan, acme)) == []

    def test_cross_tenant_replay_rejected(self, pipeline, registry):
        acme = registry.context("acme")
        plan = pipeline._executor.compile(
            "What is the total sales of the Quartz Monitor in Q3?",
            tenant=acme)
        # A permissive tenant must reject a plan carrying acme's
        # predicates — a stale (replayed) governance token.
        errors = tenancy_errors(
            check_tenancy(plan, registry.context("globex")))
        assert errors
        assert all(e.code.startswith("tenancy-stale") for e in errors)

    def test_governed_signatures_differ_per_tenant(
            self, pipeline, registry):
        question = "What is the total sales of the Quartz Monitor in Q3?"
        plain = pipeline._executor.compile(question).signature()
        acme = pipeline._executor.compile(
            question, tenant=registry.context("acme")).signature()
        globex = pipeline._executor.compile(
            question, tenant=registry.context("globex")).signature()
        assert acme != plain
        assert globex == plain  # permissive tenant injects nothing

    def test_invisible_table_flagged(self, registry):
        class Stage:
            def __init__(self, kind, params):
                self.id = kind.lower()
                self.kind = kind
                self.params = params

        class Plan:
            stages = (Stage("Route", (("bound_tables", "secrets"),)),)

        narrow = registry.context("acme")
        errors = tenancy_errors(check_tenancy(Plan(), narrow))
        assert [e.code for e in errors] == ["tenancy-invisible-table"]


# ----------------------------------------------------------------------
# Work-clock quota buckets
# ----------------------------------------------------------------------

class TestWorkClockBucket:
    def test_post_paid_deterministic_exhaustion(self):
        bucket = WorkClockBucket(capacity=100, refill=0.0, now=0)
        assert bucket.admit(0)
        bucket.charge(0, 250)          # debt allowed (post-paid)
        assert bucket.tokens == -150
        assert not bucket.admit(0)     # dry until refilled
        assert not bucket.admit(10)    # refill 0: never recovers
        assert bucket.spent == 250

    def test_refill_on_work_clock(self):
        bucket = WorkClockBucket(capacity=100, refill=1.0, now=0)
        bucket.charge(0, 150)
        assert not bucket.admit(0)
        assert bucket.admit(100)       # 100 work units refill 100 tokens
        bucket.admit(10_000)
        assert bucket.tokens == 100    # capped at capacity


# ----------------------------------------------------------------------
# Serving integration: quota exhaustion is typed, never raised
# ----------------------------------------------------------------------

class TestServingQuota:
    def make_server(self, lake, doc):
        _system, pipeline = build_hybrid_system(lake, seed=SEED)
        return QueryServer(pipeline,
                           tenants=TenantRegistry.from_dict(doc))

    def test_exhaustion_sheds_typed_and_isolates(self, lake):
        server = self.make_server(lake, {"tenants": [
            {"id": "greedy", "quota": {"capacity": 10, "refill": 0.0}},
            {"id": "quiet"},
        ]})
        questions = [
            pair.question for pair in lake.qa_pairs(per_kind=1)
        ][:3]
        greedy = [server.ask(q, session="g", tenant="greedy")
                  for q in questions]
        quiet = [server.ask(q, session="q", tenant="quiet")
                 for q in questions]
        # The first greedy ask admits (bucket starts full) and spends
        # past 10 units; everything after is shed, typed.
        assert not greedy[0].metadata.get("shed")
        for answer in greedy[1:]:
            assert answer.abstained
            assert answer.metadata.get("shed")
            assert "degradation" in answer.metadata
        # The quiet tenant is untouched by its neighbour's exhaustion.
        assert all(not a.metadata.get("shed") for a in quiet)
        stats = server.stats()["tenants"]
        assert stats["greedy"]["shed"] == len(questions) - 1
        assert stats["quiet"]["shed"] == 0
        assert stats["greedy"]["quota_balance"] < 0

    def test_unknown_tenant_shed_not_raised(self, lake):
        server = self.make_server(lake, {"tenants": [{"id": "quiet"}]})
        answer = server.ask("anything", tenant="stranger")
        assert answer.abstained
        assert answer.metadata.get("shed")

    def test_serve_requests_carry_tenant(self, lake):
        server = self.make_server(lake, {"tenants": [
            {"id": "greedy", "quota": {"capacity": 50, "refill": 0.0}},
            {"id": "quiet"},
        ]})
        question = lake.qa_pairs(per_kind=1)[0].question
        requests = [
            ServeRequest(op="ask", payload={"question": question},
                         session="s", tenant=tenant)
            for tenant in ("greedy", "greedy", "quiet")
        ]
        results = server.serve(requests)
        assert [r.tenant for r in results] == ["greedy", "greedy",
                                               "quiet"]
        assert not any(r.answer is None for r in results)


# ----------------------------------------------------------------------
# CLI: repro tenants (validate / list)
# ----------------------------------------------------------------------

class TestTenantsCli:
    def test_valid_file_exits_zero_and_lists(self, tmp_path, capsys):
        path = tmp_path / "tenants.json"
        path.write_text(json.dumps(REGISTRY_DOC))
        assert main(["tenants", str(path), "--list"]) == 0
        out = capsys.readouterr().out
        assert "ok (3 tenant(s))" in out   # acme, globex + default
        assert "acme:" in out and "quota=600@0.50" in out

    def test_findings_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"tenants": [{"id": "x", "tier": "platinum"}]}))
        assert main(["tenants", str(path)]) == 1
        assert "finding(s)" in capsys.readouterr().out

    def test_unreadable_exit_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["tenants", str(path)]) == 2
        assert main(["tenants", str(tmp_path / "missing.json")]) == 2

    def test_ask_rejects_unknown_tenant(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text(json.dumps(REGISTRY_DOC))
        with pytest.raises(SystemExit):
            main(["ask", "anything", "--domain", "ecommerce",
                  "--tenants", str(path), "--tenant", "stranger"])
