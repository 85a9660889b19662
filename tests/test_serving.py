"""Tests for the query-serving subsystem (repro.serving).

The load-bearing properties: batched+cached answering is byte-for-byte
identical to sequential uncached answering; every store write
invalidates exactly the tiers that depend on it; admission control
sheds with typed abstentions instead of raising; the workload format
rejects malformed input with :class:`~repro.errors.ServingError`.
"""

import copy
import gc
import random
import weakref

import pytest

from repro.bench import LakeSpec, generate_ecommerce_lake
from repro.bench.runner import build_hybrid_system
from repro.errors import ServingError
from repro.resilience import FaultPlan, ResilienceConfig, work_now
from repro.serving import (
    AdmissionPolicy, CachePolicy, QueryServer, ServeRequest,
    normalize_question, parse_workload, render_jsonl, repeated_questions,
    request_from_record,
)
from repro.tenancy import TenantRegistry

SEED = 11


@pytest.fixture(scope="module")
def lake():
    return generate_ecommerce_lake(LakeSpec(n_products=4, seed=SEED))


@pytest.fixture(scope="module")
def questions(lake):
    return [pair.question for pair in lake.qa_pairs(per_kind=1)][:4]


def make_server(lake, policy=None, admission=None, batch_size=4,
                chaos_rate=0.0):
    resilience = None
    if chaos_rate > 0.0:
        resilience = ResilienceConfig(
            fault_plan=FaultPlan.uniform(
                ("relational", "retriever", "slm"), chaos_rate, seed=5,
            ),
            budget=500_000,
        )
    _system, pipeline = build_hybrid_system(lake, seed=SEED,
                                            resilience=resilience)
    return QueryServer(pipeline, policy=policy or CachePolicy(),
                       admission=admission, batch_size=batch_size)


def ask(question, session="default"):
    return ServeRequest(op="ask", payload={"question": question},
                        session=session)


def fingerprints(results):
    return [r.answer.fingerprint() for r in results if r.op == "ask"]


# ----------------------------------------------------------------------
# Equality: caching and batching must be invisible in the answers
# ----------------------------------------------------------------------

class TestEquality:
    def test_cached_batched_equals_sequential_uncached(self, lake,
                                                       questions):
        workload = (
            [ask(q) for q in questions]
            + [ask(questions[0]), ask(questions[0])]
            + [ServeRequest(op="sql", payload={"statement":
                "INSERT INTO sales VALUES (99001, 1, 'Q1', 2024, 50.0)"})]
            + [ask(q) for q in questions]
        )
        cached = make_server(lake, CachePolicy(), batch_size=4)
        sequential = make_server(lake, CachePolicy.none(), batch_size=1)
        assert fingerprints(cached.serve(workload)) == fingerprints(
            sequential.serve(workload))

    def test_single_flight_dedup(self, lake, questions):
        server = make_server(lake, batch_size=8)
        results = server.serve([ask(questions[0])] * 3)
        fps = fingerprints(results)
        assert fps[0] == fps[1] == fps[2]
        assert server.stats()["scheduler"]["deduped"] == 2
        assert [r.deduped for r in results] == [False, True, True]

    def test_warm_pass_at_least_three_times_cheaper(self, lake,
                                                    questions):
        server = make_server(lake, batch_size=4)
        meter = server.pipeline.meter
        workload = repeated_questions(questions, repeats=1)
        before = work_now(meter)
        cold = fingerprints(server.serve(workload))
        cold_work = work_now(meter) - before
        before = work_now(meter)
        warm = fingerprints(server.serve(workload))
        warm_work = work_now(meter) - before
        assert cold == warm
        assert warm_work * 3 <= cold_work


# ----------------------------------------------------------------------
# Sharing: answers are frozen values, so nothing on the path copies one
# ----------------------------------------------------------------------

class TestSharedAnswers:
    def stored(self, server):
        return [answer for _key, answer in server.cache.answers.lru.items()]

    def test_warm_hit_is_the_stored_object(self, lake, questions):
        server = make_server(lake, batch_size=1)
        cold = server.ask(questions[0])
        warm = server.ask(questions[0])
        [stored] = self.stored(server)
        assert cold is stored and warm is stored

    def test_dedup_rider_is_the_leaders_answer(self, lake, questions):
        server = make_server(lake, CachePolicy.none(), batch_size=8)
        leader, *riders = server.serve([ask(questions[0])] * 3)
        assert [r.deduped for r in riders] == [True, True]
        assert all(r.answer is leader.answer for r in riders)

    def test_a_served_answer_cannot_poison_the_cache(self, lake,
                                                     questions):
        server = make_server(lake, batch_size=1)
        served = server.ask(questions[0])
        before = served.fingerprint()
        with pytest.raises(TypeError):
            served.metadata["route"] = "poisoned"
        with pytest.raises(TypeError):
            served.metadata.clear()
        with pytest.raises(AttributeError):
            served.text = "poisoned"
        assert server.ask(questions[0]).fingerprint() == before

    def test_hits_and_riders_never_copy(self, lake, questions,
                                        monkeypatch):
        server = make_server(lake, batch_size=4)
        cold = fingerprints(server.serve([ask(q) for q in questions]))

        def refuse(*_args, **_kwargs):
            raise AssertionError("copy.deepcopy on the serving path")

        monkeypatch.setattr(copy, "deepcopy", refuse)
        results = server.serve([ask(questions[0])] * 2
                               + [ask(q) for q in questions])
        assert [r.deduped for r in results[:2]] == [False, True]
        assert fingerprints(results) == cold[:1] * 2 + cold
        assert [r.deduped for r in results].count(True) == 2
        assert server.stats()["cache"]["answer"]["hits"] == 4


# ----------------------------------------------------------------------
# Invalidation: each store kind flushes its dependent tiers
# ----------------------------------------------------------------------

TOTAL_QUESTION = "Find the total sales of all products in Q1."
#: Routed to the text engine: its answer reads the retrieval tier.
TEXT_QUESTION = ("How much did satisfaction with the Quartz Monitor "
                 "change in Q3 2024?")
TEXT_WRITE = ServeRequest(op="add_text", payload={
    "doc_id": "t-note",
    "text": "The TestWidget launch was delayed to Q3.",
})


def invalidation_workload(write, questions=(TOTAL_QUESTION,)):
    asks = [ask(question) for question in questions]
    return asks + asks + [write] + asks


class TestInvalidation:
    def check_write(self, lake, write, kind, questions=(TOTAL_QUESTION,)):
        cached = make_server(lake, CachePolicy(), batch_size=4)
        control = make_server(lake, CachePolicy.none(), batch_size=1)
        workload = invalidation_workload(write, questions)
        got = fingerprints(cached.serve(workload))
        want = fingerprints(control.serve(workload))
        assert got == want
        n = len(questions)
        assert got[:n] == got[n:2 * n]  # pre-write repeats consistent
        stats = cached.stats()["cache"]
        assert stats["generations"][kind] > 0
        return got, stats

    def test_relational_write_invalidates_and_changes_answer(self, lake):
        write = ServeRequest(op="sql", payload={"statement":
            "INSERT INTO sales VALUES (99002, 1, 'Q1', 2024, 777.0)"})
        got, stats = self.check_write(lake, write, "relational")
        assert got[2] != got[0]  # the new row changed the total
        dropped = (stats["answer"]["invalidations"]
                   + stats["plan"]["invalidations"])
        assert dropped > 0

    def test_document_write_invalidates_answer_tier(self, lake):
        write = ServeRequest(op="add_doc", payload={
            "doc_id": "t-doc",
            "document": {"name": "TestWidget", "status": "new"},
        })
        _got, stats = self.check_write(lake, write, "document")
        assert stats["answer"]["invalidations"] > 0
        # Plans depend on the relational store only: still valid.
        assert stats["plan"]["invalidations"] == 0

    def test_text_write_invalidates_answer_tier(self, lake):
        _got, stats = self.check_write(
            lake, TEXT_WRITE, "text",
            questions=(TOTAL_QUESTION, TEXT_QUESTION))
        assert stats["answer"]["invalidations"] > 0
        # The text-routed recompute finds its cached ranking stale.
        assert stats["retrieval"]["invalidations"] > 0

    def test_text_write_drops_every_tenants_answers(self, lake):
        registry = TenantRegistry.from_dict(
            {"tenants": [{"id": "a"}, {"id": "b"}]})
        _system, pipeline = build_hybrid_system(lake, seed=SEED)
        server = QueryServer(pipeline, tenants=registry, batch_size=1)
        asks = [ServeRequest(op="ask", payload={"question": question},
                             tenant=tenant)
                for tenant in ("a", "b")
                for question in (TOTAL_QUESTION, TEXT_QUESTION)]
        server.serve(asks + asks + [TEXT_WRITE] + asks)
        assert server.stats()["cache"]["answer"]["invalidations"] == 4
        for tenant in ("a", "b"):
            record = server.stats()["tenants"][tenant]
            assert (record["answer_lookups"], record["answer_hits"]) \
                == (6, 2)


class PlanKey:
    """A weakly referenceable plan key: shows whether a cache keeps it."""

    __slots__ = ("__weakref__",)


class TestPlanTier:
    def plan_server(self, lake):
        _system, pipeline = build_hybrid_system(lake, seed=SEED)
        server = QueryServer(pipeline, policy=CachePolicy.from_string("plan"))
        return pipeline.table_qa, server.cache.plans

    def test_abstaining_asks_retain_no_plan_key(self, lake):
        table_qa, plans = self.plan_server(lake)
        refs = []
        for index in range(50):
            key = PlanKey()
            refs.append(weakref.ref(key))
            answer = table_qa.answer(
                "Where did blorf number %d go?" % index, plan_key=key)
            assert answer.abstained
        del key
        gc.collect()
        assert [ref for ref in refs if ref() is not None] == []
        assert (len(plans.lru), plans.lru.total_cost) == (0, 0)

    def test_answered_ask_stores_its_plan_at_unit_cost(self, lake):
        table_qa, plans = self.plan_server(lake)
        for index in range(50):
            table_qa.answer("Where did blorf number %d go?" % index)
        assert not table_qa.answer(TOTAL_QUESTION).abstained
        assert (len(plans.lru), plans.lru.total_cost) == (1, 1)
        table_qa.answer(TOTAL_QUESTION)
        assert plans.lru.stats.hits == 1


# ----------------------------------------------------------------------
# Property: scheduler determinism under permuted submission order
# ----------------------------------------------------------------------

class TestSchedulerPermutation:
    """Answers and batch composition are order-independent between
    write barriers: submission interleaving is scheduling detail, not
    semantics."""

    def permuted_segments(self, segments, seed):
        rng = random.Random(seed)
        workload = []
        for segment in segments:
            chunk = list(segment)
            rng.shuffle(chunk)
            workload.extend(chunk)
        return workload

    def test_permuted_interleavings_are_equivalent(self, lake,
                                                   questions):
        write = ServeRequest(op="sql", payload={"statement":
            "INSERT INTO sales VALUES (99003, 1, 'Q2', 2024, 10.0)"})
        segments = [
            [ask(questions[0]), ask(questions[1]), ask(questions[2]),
             ask(questions[0])],
            [write],
            [ask(questions[1]), ask(questions[3]), ask(questions[2])],
        ]
        baseline_by_question = None
        baseline_batches = None
        for seed in range(5):
            workload = self.permuted_segments(segments, seed)
            server = make_server(lake, CachePolicy(), batch_size=4)
            results = server.serve(workload)
            by_question = {}
            for result in results:
                if result.op != "ask":
                    continue
                question = workload[result.index].payload["question"]
                fp = fingerprints([result])[0]
                # Duplicate asks (dedup riders) must match the primary.
                assert by_question.setdefault(question, fp) == fp
            # A size → count histogram: one batch of 4, one of 3.
            batches = server.stats()["scheduler"]["batch_sizes"]
            assert batches == {4: 1, 3: 1}
            if baseline_by_question is None:
                baseline_by_question = by_question
                baseline_batches = batches
            else:
                assert by_question == baseline_by_question, (
                    "answers diverged under permutation seed %d" % seed)
                assert batches == baseline_batches, (
                    "batch composition diverged under permutation "
                    "seed %d" % seed)

    def test_per_request_work_is_recorded(self, lake, questions):
        server = make_server(lake, batch_size=4)
        results = server.serve([ask(q) for q in questions[:2]])
        assert all(r.work >= 0 for r in results)
        assert any(r.work > 0 for r in results)


# ----------------------------------------------------------------------
# Admission control: shedding is a typed abstention, never an exception
# ----------------------------------------------------------------------

class TestAdmission:
    def test_session_budget_sheds_after_spend(self, lake, questions):
        server = make_server(
            lake, admission=AdmissionPolicy(session_budget=1),
            batch_size=1,
        )
        results = server.serve([ask(questions[0]), ask(questions[0])])
        first, second = results
        assert not first.shed
        assert second.shed
        answer = second.answer
        assert answer.abstained
        assert answer.metadata["shed"] is True
        assert answer.metadata["degraded"] is True
        assert "degradation" in answer.metadata
        assert server.admission.spent("default") > 0

    def test_budget_is_per_session(self, lake, questions):
        server = make_server(
            lake, admission=AdmissionPolicy(session_budget=1),
            batch_size=1,
        )
        results = server.serve([
            ask(questions[0], session="alice"),
            ask(questions[0], session="alice"),
            ask(questions[0], session="bob"),
        ])
        assert [r.shed for r in results] == [False, True, False]

    def test_queue_depth_sheds_excess_arrivals(self, lake, questions):
        server = make_server(
            lake, admission=AdmissionPolicy(max_queue_depth=2),
            batch_size=8,
        )
        results = server.serve([ask(q) for q in questions])
        assert [r.shed for r in results] == [False, False, True, True]
        assert server.stats()["scheduler"]["shed"] == 2

    def test_write_barrier_resets_queue_depth(self, lake, questions):
        server = make_server(
            lake, admission=AdmissionPolicy(max_queue_depth=2),
            batch_size=8,
        )
        write = ServeRequest(op="add_doc", payload={
            "doc_id": "d1", "document": {"name": "X"}})
        results = server.serve([
            ask(questions[0]), ask(questions[1]), write,
            ask(questions[2]), ask(questions[3]),
        ])
        assert not any(r.shed for r in results)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(session_budget=0)
        with pytest.raises(ValueError):
            AdmissionPolicy(max_queue_depth=-1)


# ----------------------------------------------------------------------
# Sustained overload: shedding stays typed, monotone, and isolated
# ----------------------------------------------------------------------

class TestSustainedOverload:
    def offered(self, questions, n, session="default"):
        return [ask(questions[i % len(questions)], session=session)
                for i in range(n)]

    def test_overload_never_raises_and_sheds_typed(self, lake,
                                                   questions):
        server = make_server(
            lake, admission=AdmissionPolicy(max_queue_depth=2),
            batch_size=16,
        )
        results = server.serve(self.offered(questions, 24))
        assert len(results) == 24
        for result in results:
            assert result.answer is not None
            if result.shed:
                assert result.answer.abstained
                assert result.answer.metadata["shed"] is True
                assert result.answer.metadata["degraded"] is True
                assert result.work == 0

    def test_shed_rate_monotone_in_offered_load(self, lake, questions):
        rates = []
        for offered_load in (2, 4, 8, 16, 32):
            server = make_server(
                lake, admission=AdmissionPolicy(max_queue_depth=4),
                batch_size=64,
            )
            results = server.serve(self.offered(questions, offered_load))
            shed = sum(1 for r in results if r.shed)
            rates.append(shed / offered_load)
        assert rates == sorted(rates), (
            "shed rate not monotone in offered load: %r" % (rates,))
        assert rates[0] == 0.0
        assert rates[-1] > 0.5

    def test_session_budget_isolates_greedy_from_quiet(self, lake,
                                                       questions):
        server = make_server(
            lake, admission=AdmissionPolicy(session_budget=200),
            batch_size=4,
        )
        workload = []
        for i in range(12):
            workload.append(ask(questions[i % len(questions)],
                                session="greedy"))
            if i % 4 == 0:
                workload.append(ask(questions[0], session="quiet"))
        results = server.serve(workload)
        greedy = [r for r in results if r.session == "greedy"]
        quiet = [r for r in results if r.session == "quiet"]
        assert any(r.shed for r in greedy), "greedy session never shed"
        assert not any(r.shed for r in quiet), (
            "quiet session shed by the greedy session's spend")


# ----------------------------------------------------------------------
# Chaos safety: faulted results are served but never cached
# ----------------------------------------------------------------------

class TestChaosSafety:
    def test_no_degraded_answer_is_cached(self, lake, questions):
        server = make_server(lake, chaos_rate=0.4)
        workload = repeated_questions(questions[:3], repeats=2)
        results = server.serve(workload)  # contract: never raises
        injector = server.pipeline.resilience.injector
        assert injector is not None and injector.log
        for _key, answer in server.cache.answers.lru.items():
            assert not answer.metadata.get("degraded")
        # and the same seeded plan replays byte-identically
        replay = make_server(lake, chaos_rate=0.4).serve(workload)
        assert fingerprints(replay) == fingerprints(results)


# ----------------------------------------------------------------------
# Workload format and policy parsing
# ----------------------------------------------------------------------

class TestWorkloadParsing:
    def test_parses_ops_and_skips_comments(self):
        text = "\n".join([
            '{"op": "ask", "question": "Q1?"}',
            "# a comment",
            "",
            '{"op": "sql", "statement": "SELECT 1"}',
            '{"op": "add_doc", "doc_id": "d", "document": {"a": 1}}',
            '{"op": "add_text", "doc_id": "t", "text": "hello"}',
        ])
        requests = parse_workload(text)
        assert [r.op for r in requests] == [
            "ask", "sql", "add_doc", "add_text"]
        assert requests[0].payload["question"] == "Q1?"

    def test_bad_json_raises(self):
        with pytest.raises(ServingError):
            parse_workload("{not json}")

    def test_unknown_op_raises(self):
        with pytest.raises(ServingError):
            parse_workload('{"op": "drop_tables"}')

    def test_missing_field_raises(self):
        with pytest.raises(ServingError):
            parse_workload('{"op": "ask"}')

    def test_bad_json_error_names_line_and_content(self):
        text = "\n".join([
            '{"op": "ask", "question": "fine"}',
            '{"op": "ask", "question": "also fine"}',
            "{definitely not json}",
        ])
        with pytest.raises(ServingError) as excinfo:
            parse_workload(text)
        message = str(excinfo.value)
        assert "workload line 3" in message
        assert "(line: '{definitely not json}')" in message

    def test_bad_json_error_truncates_long_lines(self):
        line = '{"op": "ask", "question": ' + "x" * 300
        with pytest.raises(ServingError) as excinfo:
            parse_workload(line)
        message = str(excinfo.value)
        assert "workload line 1" in message
        assert "...'" in message
        # The embedded snippet is bounded, not the whole 300-char line.
        assert len(message) < 300

    def test_non_object_line_error_names_content(self):
        with pytest.raises(ServingError) as excinfo:
            parse_workload('["a", "list"]')
        assert "must be a JSON object" in str(excinfo.value)
        assert "(line: " in str(excinfo.value)

    def test_request_from_record_roundtrips_via_render(self):
        records = [
            {"op": "ask", "question": "Q1?", "session": "s01"},
            {"op": "sql", "statement": "SELECT 1"},
            {"op": "add_doc", "doc_id": "d", "document": {"a": 1}},
        ]
        requests = [request_from_record(dict(r)) for r in records]
        assert parse_workload(render_jsonl(requests)) == requests

    def test_repeated_questions_shape(self):
        requests = repeated_questions(["a", "b"], repeats=2)
        assert [r.payload["question"] for r in requests] == [
            "a", "b", "a", "b"]

    def test_normalize_question(self):
        assert normalize_question("  what \n is\tthis ") == "what is this"
        # Case is significant: the answer path hashes the exact string.
        assert normalize_question("What") != normalize_question("what")

    def test_cache_policy_from_string(self):
        assert CachePolicy.from_string("full").describe() == "full"
        assert CachePolicy.from_string("none").describe() == "none"
        partial = CachePolicy.from_string("plan,retrieval")
        assert (partial.plan, partial.retrieval) == (True, True)
        assert partial.answer is False
        with pytest.raises(ValueError):
            CachePolicy.from_string("answer,bogus")
        with pytest.raises(ValueError):
            CachePolicy.from_string("answer,embedding")


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------

class TestServeCli:
    def test_serve_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        workload = tmp_path / "workload.jsonl"
        workload.write_text("\n".join([
            '{"op": "ask", "question": "How many products are there?"}',
            '{"op": "ask", "question": "How many products are there?"}',
            '{"op": "sql", "statement": "SELECT COUNT(*) FROM products"}',
        ]), encoding="utf-8")
        code = main([
            "serve", "--workload", str(workload), "--seed", str(SEED),
            "--batch-size", "2", "--cache-policy", "full",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("[ask]") == 2
        assert "[sql]" in out
        assert "scheduler:" in out
        assert "cache.answer" in out

    def test_serve_rejects_unknown_policy(self, tmp_path):
        from repro.cli import main

        workload = tmp_path / "w.jsonl"
        workload.write_text('{"op": "ask", "question": "q"}',
                            encoding="utf-8")
        with pytest.raises(SystemExit):
            main(["serve", "--workload", str(workload),
                  "--cache-policy", "bogus"])

    @pytest.mark.parametrize("flag", ["--session-budget",
                                      "--max-queue-depth"])
    def test_serve_rejects_nonpositive_admission(self, tmp_path, flag):
        from repro.cli import main

        workload = tmp_path / "w.jsonl"
        workload.write_text('{"op": "ask", "question": "q"}',
                            encoding="utf-8")
        with pytest.raises(SystemExit, match="must be positive"):
            main(["serve", "--workload", str(workload), flag, "0"])
