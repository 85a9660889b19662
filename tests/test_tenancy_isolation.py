"""Cross-tenant isolation properties of the serving layer.

The claims under test: interleaved traffic from two tenants never
shares a cache entry across the tenant boundary (answer, plan and
retrieval tiers are all tenant-keyed), governed plan signatures differ
per tenant, and every interleaved answer is byte-identical to the one
a dedicated single-tenant server would have produced — cache state
from a neighbour can never change what a tenant sees.
"""

import pytest

from repro.bench import LakeSpec, generate_ecommerce_lake
from repro.bench.runner import build_hybrid_system
from repro.serving import QueryServer, ServeRequest
from repro.tenancy import TenantRegistry

SEED = 11

#: Two governed tenants whose RLS predicates disagree on purpose, plus
#: an implicit permissive default.
REGISTRY_DOC = {
    "tenants": [
        {
            "id": "q1",
            "rls": [{"table": "sales", "column": "quarter", "op": "=",
                     "value": "Q1"}],
        },
        {
            "id": "q2",
            "rls": [{"table": "sales", "column": "quarter", "op": "=",
                     "value": "Q2"}],
        },
    ]
}


@pytest.fixture(scope="module")
def lake():
    return generate_ecommerce_lake(LakeSpec(n_products=4, seed=SEED))


@pytest.fixture(scope="module")
def questions(lake):
    return [pair.question for pair in lake.qa_pairs(per_kind=1)]


def make_server(lake):
    _system, pipeline = build_hybrid_system(lake, seed=SEED)
    return QueryServer(pipeline,
                       tenants=TenantRegistry.from_dict(REGISTRY_DOC))


class TestCacheIsolation:
    def test_zero_cross_tenant_answer_hits_interleaved(self, lake,
                                                       questions):
        server = make_server(lake)
        # Round 1: strict interleaving — every lookup must miss, even
        # though the *other* tenant just asked the same question.
        for question in questions:
            for tenant in ("q1", "q2", "default"):
                server.ask(question, tenant=tenant)
        stats = server.stats()["tenants"]
        for tenant in ("q1", "q2", "default"):
            assert stats[tenant]["answer_lookups"] == len(questions)
            assert stats[tenant]["answer_hits"] == 0
        # Round 2: identical traffic — now every lookup hits, strictly
        # within its own tenant's keyspace.
        for question in questions:
            for tenant in ("q1", "q2", "default"):
                server.ask(question, tenant=tenant)
        stats = server.stats()["tenants"]
        for tenant in ("q1", "q2", "default"):
            assert stats[tenant]["answer_hits"] == len(questions)
            assert stats[tenant]["answer_hit_rate"] == 0.5

    def test_interleaved_equals_dedicated_single_tenant(self, lake,
                                                        questions):
        """A neighbour's cache state never changes a tenant's answer."""
        shared = make_server(lake)
        interleaved = {
            tenant: [
                shared.ask(q, tenant=tenant).fingerprint()
                for q in questions
            ]
            for tenant in ("q1", "q2")
        }
        for tenant in ("q1", "q2"):
            dedicated = make_server(lake)
            alone = [dedicated.ask(q, tenant=tenant).fingerprint()
                     for q in questions]
            assert interleaved[tenant] == alone

    def test_tenants_with_different_rls_get_different_answers(
            self, lake, questions):
        server = make_server(lake)
        aggregate = "Find the total sales of all products in Q1."
        q1 = server.ask(aggregate, tenant="q1")
        q2 = server.ask(aggregate, tenant="q2")
        assert not q1.abstained
        # q2's RLS pins quarter=Q2, the question asks Q1: disjoint.
        assert q1.fingerprint() != q2.fingerprint()

    def test_repeat_after_neighbour_hit_still_correct(self, lake):
        """A warm neighbour entry must not be served cross-tenant."""
        server = make_server(lake)
        aggregate = "Find the total sales of all products in Q1."
        reference = server.ask(aggregate, tenant="q1").fingerprint()
        server.ask(aggregate, tenant="q2")      # warms q2's entry
        again = server.ask(aggregate, tenant="q1").fingerprint()
        assert again == reference


class TestPlanIsolation:
    def test_governed_plan_signatures_differ(self, lake, questions):
        _system, pipeline = build_hybrid_system(lake, seed=SEED)
        registry = TenantRegistry.from_dict(REGISTRY_DOC)
        for question in questions:
            signatures = {
                tenant: pipeline._executor.compile(
                    question,
                    tenant=registry.context(tenant)).signature()
                for tenant in ("q1", "q2", "default")
            }
            assert signatures["q1"] != signatures["q2"]
            assert signatures["q1"] != signatures["default"]
            assert signatures["q2"] != signatures["default"]


class TestSchedulerIsolation:
    def test_single_flight_dedup_is_same_tenant_only(self, lake,
                                                     questions):
        server = make_server(lake)
        question = questions[0]
        results = server.serve([
            ServeRequest(op="ask", payload={"question": question},
                         session="s%d" % i, tenant=tenant)
            for i, tenant in enumerate(
                ("q1", "q1", "q2", "q2", "default"))
        ])
        by_tenant = {}
        for result in results:
            by_tenant.setdefault(result.tenant, []).append(result)
        # Within a tenant the duplicate collapses; across tenants the
        # same question is computed independently.
        assert sum(1 for r in by_tenant["q1"] if r.deduped) == 1
        assert sum(1 for r in by_tenant["q2"] if r.deduped) == 1
        assert not any(r.deduped for r in by_tenant["default"])
        assert (by_tenant["q1"][0].answer.fingerprint()
                == by_tenant["q1"][1].answer.fingerprint())
