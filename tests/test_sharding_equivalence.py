"""Sharding gate: scatter-gather answers == unsharded, clean and chaotic.

For both domains and shard counts {1, 2, 4}, every benchmark answer
must produce a byte-identical fingerprint to the unsharded build —
uncached, and again under the chaos sweep's fault settings (whose plans
name only the logical backends, so the per-shard fault streams draw
nothing and determinism is preserved). A permanently dead shard must
surface as typed degradation or abstention, never an unhandled raise,
and must leave other shards' serving-cache entries valid. Every fault
plan is given to the build.
"""

import unittest

from repro.bench import (
    HealthSpec, LakeSpec, generate_ecommerce_lake, generate_healthcare_lake,
)
from repro.bench.runner import build_hybrid_system
from repro.metering import ROWS_SCANNED
from repro.resilience import BackendFaults, FaultPlan, ResilienceConfig

SEED = 13
CHAOS_SEED = 23
CHAOS_RATE = 0.3
CHAOS_BACKENDS = ("relational", "document", "textstore", "retriever",
                  "slm")
BUDGET = 500_000
SHARD_COUNTS = (1, 2, 4)


def _lake(domain):
    if domain == "ecommerce":
        return generate_ecommerce_lake(LakeSpec(n_products=4, seed=17))
    return generate_healthcare_lake(HealthSpec(n_drugs=4, seed=17))


def _build(domain, n_shards=1, resilience=None):
    lake = _lake(domain)
    _system, pipe = build_hybrid_system(lake, seed=SEED,
                                        n_shards=n_shards,
                                        resilience=resilience)
    questions = [pair.question for pair in lake.qa_pairs(per_kind=1)]
    return pipe, questions


def _shard_faults(shard, rate=1.0):
    """A plan faulting guarded calls on *shard* permanently at *rate*."""
    return ResilienceConfig(
        fault_plan=FaultPlan.from_dict({
            "seed": 7,
            "backends": {"shard:%d" % shard: {
                "rate": rate, "kinds": {"permanent": 1.0}}},
        }),
        budget=BUDGET,
    )


def _fingerprints(domain, n_shards, chaos=False):
    chaos_config = ResilienceConfig(
        fault_plan=FaultPlan.uniform(CHAOS_BACKENDS, CHAOS_RATE,
                                     seed=CHAOS_SEED),
        budget=BUDGET,
    )
    pipe, questions = _build(domain, n_shards=n_shards,
                             resilience=chaos_config if chaos else None)
    return [pipe.answer(q).fingerprint() for q in questions]


class ShardEquivalenceTest(unittest.TestCase):
    """Byte-identity over shard counts, clean and under chaos."""

    def _assert_equivalent(self, domain, chaos):
        reference = _fingerprints(domain, 1, chaos=chaos)
        for n_shards in SHARD_COUNTS[1:]:
            self.assertEqual(
                _fingerprints(domain, n_shards, chaos=chaos), reference,
                "sharded answers diverged (domain=%s shards=%d chaos=%s)"
                % (domain, n_shards, chaos),
            )

    def test_ecommerce_clean(self):
        self._assert_equivalent("ecommerce", chaos=False)

    def test_healthcare_clean(self):
        self._assert_equivalent("healthcare", chaos=False)

    def test_ecommerce_chaos(self):
        self._assert_equivalent("ecommerce", chaos=True)

    def test_healthcare_chaos(self):
        self._assert_equivalent("healthcare", chaos=True)


class ShardPruningTest(unittest.TestCase):
    """Equality on the entity key dispatches to one shard only."""

    def test_entity_question_prunes(self):
        pipe, _ = _build("ecommerce", n_shards=4)
        pipe.shard_set.stats.pruned_calls = 0
        answer = pipe.answer("What is the price of Rapid Charger?")
        self.assertFalse(answer.abstained)
        self.assertGreater(pipe.shard_set.stats.pruned_calls, 0)

    def test_explain_plan_reports_dispatch(self):
        pipe, _ = _build("ecommerce", n_shards=4)
        pipe.answer("What is the price of Rapid Charger?")
        rendered = pipe.explain(
            "What is the price of Rapid Charger?")
        self.assertIn("sharding: 4 shards", rendered)
        self.assertIn("shard dispatch: pruned=", rendered)
        pruned = int(rendered.split("pruned=")[1].split()[0])
        self.assertGreater(pruned, 0)

    def test_filtered_scans_match_unsharded_rows_and_charges(self):
        # The executor hands scan_matching one closure bound to the
        # table's layout; pruned or fanned out, the shards must return
        # the rows and charge the work of the unsharded scan.
        plain, _ = _build("ecommerce", n_shards=1)
        sharded, _ = _build("ecommerce", n_shards=4)
        stats = sharded.shard_set.stats
        for sql, pruned in (
            ("SELECT pid, price FROM products "
             "WHERE LOWER(name) = 'rapid charger'", True),
            ("SELECT name FROM products "
             "WHERE LOWER(name) = 'rapid charger' AND price > 0", True),
            ("SELECT name FROM products WHERE name LIKE '%a%'", False),
            ("SELECT name FROM products WHERE price > 20 OR pid = 1", False),
            ("SELECT p.name, s.amount FROM sales s JOIN products p "
             "ON s.pid = p.pid WHERE LOWER(p.name) = 'gamma scale' "
             "AND s.amount > 0", None),
        ):
            outcomes = []
            for pipe in (plain, sharded):
                before = pipe.meter.get(ROWS_SCANNED)
                result = pipe.db.execute(sql)
                outcomes.append((result.columns, result.rows,
                                 pipe.meter.get(ROWS_SCANNED) - before))
            self.assertEqual(outcomes[0], outcomes[1], sql)
            self.assertTrue(outcomes[0][1], sql)
            if pruned is not None:
                was = (stats.pruned_calls, stats.fanout_calls)
                sharded.db.execute(sql)
                self.assertEqual(
                    (stats.pruned_calls - was[0],
                     stats.fanout_calls - was[1]),
                    (1, 0) if pruned else (0, 1), sql)

    def test_unsharded_pipeline_has_no_annotations(self):
        pipe, questions = _build("ecommerce", n_shards=1)
        self.assertIsNone(pipe.shard_set)
        self.assertNotIn("sharding:", pipe.explain(questions[0]))


class ShardKnockoutTest(unittest.TestCase):
    """A permanently dead shard degrades; it never raises."""

    def _knockout(self, domain):
        pipe, questions = _build(domain, n_shards=2,
                                 resilience=_shard_faults(1))
        for question in questions:
            answer = pipe.answer(question)  # must not raise
            self.assertTrue(
                answer.text is not None or answer.abstained,
                "no typed outcome for %r" % question,
            )

    def test_ecommerce_knockout_degrades(self):
        self._knockout("ecommerce")

    def test_healthcare_knockout_degrades(self):
        self._knockout("healthcare")

    def test_healthy_shard_cache_entries_survive(self):
        from repro.serving import QueryServer

        # Shard 0 is named in the plan the build gets, at rate 0 (it
        # draws nothing), and knocked out mid-run by raising its rate.
        faults = _shard_faults(0, rate=0.0)
        pipe, _ = _build("ecommerce", n_shards=2, resilience=faults)
        server = QueryServer(pipe)
        router = pipe.shard_set.router
        self.assertEqual(router.shard_of("Rapid Charger"), 0)
        self.assertEqual(router.shard_of("Gamma Scale"), 1)
        q_dead = "What is the price of Rapid Charger?"
        q_live = "What is the price of Gamma Scale?"
        for question in (q_dead, q_live, q_dead, q_live):
            server.ask(question)
        warm = server.cache.stats()["answer"]
        self.assertEqual(warm["hits"], 2)

        # Knock out shard 0, then write into it: only q_dead's entry
        # (whose dependency closure names shard 0) is invalidated.
        faults.fault_plan.backends["shard:0"] = BackendFaults(
            rate=1.0, kinds=(("permanent", 1.0),))
        name = next(n for n in ("zz%03d" % i for i in range(300))
                    if router.shard_of(n) == 0)
        pipe.db.execute(
            "INSERT INTO products VALUES (999, '%s', 'zk', 'm', 'c', 1.0)"
            % name
        )
        live = server.ask(q_live)
        self.assertFalse(live.metadata.get("degraded"))
        self.assertEqual(server.cache.stats()["answer"]["hits"], 3)

        dead = server.ask(q_dead)  # recompute against the dead shard
        self.assertTrue(dead.metadata.get("degraded"))
        misses = server.cache.stats()["answer"]["misses"]
        server.ask(q_dead)  # degraded answers are never cached
        self.assertGreater(
            server.cache.stats()["answer"]["misses"], misses)
        self.assertEqual(server.cache.stats()["answer"]["hits"], 3)


if __name__ == "__main__":
    unittest.main()
