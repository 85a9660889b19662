"""RLS equivalence: governed answers match a pre-filtered data slice.

The semantic contract of compile-time RLS injection: answering under a
tenant whose RLS predicate pins ``sales.quarter = 'Q1'`` over the FULL
lake must be byte-identical to answering under the same context over a
lake whose sales table was physically pre-filtered to Q1 — rows outside
the predicate are not merely excluded from results, they are
indistinguishable from rows that never existed. Verified uncached and
under an injected-fault plan, on both benchmark domains.

Under chaos the degradation audit's ``work_spent`` counter is
normalized away before comparing: the full lake legitimately scans
more rows (physical cost), but everything observable — text, value,
confidence, provenance, degradation events — must still match.
"""

import dataclasses

import pytest

from repro.bench import (
    HealthSpec, LakeSpec, generate_ecommerce_lake, generate_healthcare_lake,
)
from repro.bench.runner import build_hybrid_system
from repro.resilience import FaultPlan, ResilienceConfig
from repro.tenancy import TenantRegistry

SEED = 11

ECOM_REGISTRY = TenantRegistry.from_dict({"tenants": [
    {"id": "q1",
     "rls": [{"table": "sales", "column": "quarter", "op": "=",
              "value": "Q1"}]},
]})

HEALTH_REGISTRY = TenantRegistry.from_dict({"tenants": [
    {"id": "q1",
     "rls": [{"table": "trials", "column": "quarter", "op": "=",
              "value": "Q1"}]},
]})


def build_ecommerce():
    lake = generate_ecommerce_lake(LakeSpec(n_products=4, seed=SEED))
    sliced = dataclasses.replace(
        lake, sales=[r for r in lake.sales if r["quarter"] == "Q1"])
    return lake, sliced, ECOM_REGISTRY.context("q1")


def build_healthcare():
    lake = generate_healthcare_lake(HealthSpec(seed=SEED))
    sliced = dataclasses.replace(
        lake, trials=[r for r in lake.trials if r["quarter"] == "Q1"])
    return lake, sliced, HEALTH_REGISTRY.context("q1")


DOMAINS = {"ecommerce": build_ecommerce, "healthcare": build_healthcare}


def make_pipeline(lake, chaos=False):
    resilience = None
    if chaos:
        # Faults only on backends whose call sequence is independent of
        # table cardinality, so the full lake and its slice see the
        # very same injected-fault schedule.
        resilience = ResilienceConfig(
            fault_plan=FaultPlan.uniform(("retriever", "slm"), 0.15,
                                         seed=5),
            budget=500_000,
        )
    _system, pipeline = build_hybrid_system(lake, seed=SEED,
                                            resilience=resilience)
    return pipeline


def fingerprint(answer, exact_work=True):
    degradation = answer.metadata.get("degradation")
    if not exact_work and isinstance(degradation, dict):
        degradation = dict(degradation)
        degradation.pop("work_spent", None)
        answer = dataclasses.replace(answer, metadata=dict(
            answer.metadata, degradation=degradation))
    return answer.fingerprint()


@pytest.mark.parametrize("domain", sorted(DOMAINS))
class TestRLSEquivalence:
    def test_uncached_byte_identical(self, domain):
        lake, sliced, context = DOMAINS[domain]()
        full = make_pipeline(lake)
        slim = make_pipeline(sliced)
        for pair in lake.qa_pairs(per_kind=1):
            governed = full.answer(pair.question, tenant=context)
            reference = slim.answer(pair.question, tenant=context)
            assert fingerprint(governed) == fingerprint(reference), \
                pair.question

    def test_chaos_byte_identical_modulo_work_audit(self, domain):
        lake, sliced, context = DOMAINS[domain]()
        full = make_pipeline(lake, chaos=True)
        slim = make_pipeline(sliced, chaos=True)
        degraded = 0
        for pair in lake.qa_pairs(per_kind=1):
            governed = full.answer(pair.question, tenant=context)
            reference = slim.answer(pair.question, tenant=context)
            degraded += bool(governed.metadata.get("degraded"))
            assert (fingerprint(governed, exact_work=False)
                    == fingerprint(reference, exact_work=False)), \
                pair.question
        assert degraded, "fault plan never fired; chaos leg is vacuous"

    def test_rls_actually_bites(self, domain):
        """Governance must change at least one answer vs ungoverned."""
        lake, _sliced, context = DOMAINS[domain]()
        governed = make_pipeline(lake)
        plain = make_pipeline(lake)
        changed = 0
        for pair in lake.qa_pairs(per_kind=1):
            a = governed.answer(pair.question, tenant=context)
            b = plain.answer(pair.question)
            changed += fingerprint(a) != fingerprint(b)
        assert changed >= 1
