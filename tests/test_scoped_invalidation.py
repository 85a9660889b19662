"""Scoped invalidation: a write drops only the answers it can change.

An answer-tier entry carries the read set of the computation that made
it: the text value, the schema value (each a store version plus the
pipeline's rebuild version) and the row-write counter of every table
its SELECTs read. The oracle below serves the same drawn interleaving
of asks and writes through a full-cache server and through an uncached,
batch-1 control, and every served outcome must be equal at every step:
no entry a write could change may survive it.

The scoping is sound because of two facts pinned here as well: rows and
documents written after ``build()`` reach the graph index only at the
next ``build()``, and nothing on the ask path reads the document store.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.runner import build_hybrid_system, generate_lake
from repro.serving import CachePolicy, QueryServer, ServeRequest
from repro.storage.document import DocumentStore
from repro.storage.relational import Database

SEED = 7
DOMAINS = ("ecommerce", "healthcare")


def ask(question):
    return ServeRequest(op="ask", payload={"question": question})


def sql(statement):
    return ServeRequest(op="sql", payload={"statement": statement})


def add_doc(doc_id, document):
    return ServeRequest(op="add_doc",
                        payload={"doc_id": doc_id, "document": document})


def add_text(doc_id, text):
    return ServeRequest(op="add_text",
                        payload={"doc_id": doc_id, "text": text})


def outcomes(results):
    """What a client sees: each answer's fingerprint, each write's
    detail."""
    return [r.answer.fingerprint() if r.op == "ask" else r.detail
            for r in results]


def _literal(value):
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return "'%s'" % value.replace("'", "''")
    return repr(value)


def first_rows(db):
    """Each table's column names and first row, as built."""
    return {name: (db.table(name).schema.column_names(),
                   next(iter(db.table(name).rows())))
            for name in db.table_names()}


def _copy_row(rows, table, **changes):
    """An INSERT of *table*'s first row (from :func:`first_rows`) with
    each named column moved by its change (a number) or set to it (a
    string)."""
    columns, row = rows[table]
    row = list(row)
    for name, change in changes.items():
        position = columns.index(name)
        if isinstance(change, str):
            row[position] = change
        else:
            row[position] += change
    return "INSERT INTO %s (%s) VALUES (%s)" % (
        table, ", ".join(columns),
        ", ".join(_literal(value) for value in row))


#: Per domain: the generated fact table, a curated fact table and its
#: measure column, the entity table, one of its columns and a value
#: for that column — the statements below are built from these.
TABLES = {
    "ecommerce": ("review_facts", "sales", "amount", "products",
                  "manufacturer", "Vandelay"),
    "healthcare": ("note_facts", "trials", "efficacy", "drugs",
                   "condition", "diabetes"),
}

#: A fact-bearing text per domain: its fact reaches the generated table.
FACT_TEXTS = {
    "ecommerce": "Customer satisfaction with the Alpha Camera increased "
                 "9% in Q1 2024.",
    "healthcare": "Adverse events for Pulmomab decreased 14% in Q1 2024.",
}
FACTLESS_TEXT = "Nothing at all was noted here."


def row_writes(domain, rows, n):
    """Named row writes (INSERT / UPDATE / DELETE) on the curated and
    generated tables of *domain*'s lake; *n* keeps inserted keys
    distinct."""
    facts, curated, measure, entities, column, value = TABLES[domain]
    key = rows[curated][0][0]
    return {
        "insert_curated": _copy_row(rows, curated, quarter="Q2",
                                    **{key: 100000 + n, measure: 100}),
        # The second row is malformed: the statement fails after its
        # first row is stored.
        "partial_insert": _copy_row(rows, curated, quarter="Q2",
                                    **{key: 200000 + n, measure: 1000})
                          + ", (%d)" % (300000 + n),
        "update_curated": "UPDATE %s SET %s = 77 WHERE quarter = 'Q1'"
                          % (curated, measure),
        "delete_curated": "DELETE FROM %s WHERE quarter = 'Q2'" % curated,
        "update_entity": "UPDATE %s SET %s = '%s'" % (entities, column,
                                                      value),
        "insert_generated": _copy_row(rows, facts, change_percent=5.0),
        "update_generated": "UPDATE %s SET change_percent = 33.0 "
                            "WHERE quarter = 'Q1'" % facts,
        "delete_generated": "DELETE FROM %s WHERE quarter = 'Q3'" % facts,
    }


class Oracle:
    """A full-cache server and its uncached, batch-1 control, fed the
    same requests; every outcome must agree."""

    def __init__(self, domain):
        self.domain = domain
        lake = generate_lake(domain, SEED)
        self.pool = [pair.question for pair in lake.qa_pairs(per_kind=2)]
        self.cached = self._server(lake, CachePolicy(), 4)
        self.control = self._server(lake, CachePolicy.none(), 1)
        db = self.cached.pipeline.db
        facts = TABLES[domain][0]
        self.rows = first_rows(db)
        self.create_facts = "CREATE TABLE %s (%s)" % (facts, ", ".join(
            "%s %s" % (column.name, column.dtype.value)
            for column in db.table(facts).schema.columns))
        self.steps = 0

    @staticmethod
    def _server(lake, policy, batch_size):
        _system, pipeline = build_hybrid_system(lake, SEED)
        return QueryServer(pipeline, policy=policy, batch_size=batch_size)

    def serve(self, requests):
        got = outcomes(self.cached.serve(requests))
        assert got == outcomes(self.control.serve(requests))
        return got

    def sweep(self):
        """Ask the whole pool: any stale entry shows here."""
        return self.serve([ask(question) for question in self.pool])

    def step(self, name):
        """Apply the write named *name*, then sweep the pool."""
        self.steps += 1
        for request in self.requests(name, self.steps):
            self.serve([request])
        self.sweep()

    def requests(self, name, n):
        """The requests of write step *name*."""
        facts = TABLES[self.domain][0]
        writes = row_writes(self.domain, self.rows, n)
        if name in writes:
            return [sql(writes[name])]
        if name == "add_doc":
            return [add_doc("oracle-doc-%d" % n,
                            {"name": "Oracle Widget", "status": "new"})]
        if name == "add_text_factless":
            return [add_text("oracle-text-%d" % n, FACTLESS_TEXT)]
        if name == "add_text_fact":
            return [add_text("oracle-text-%d" % n, FACT_TEXTS[self.domain])]
        if name == "create_table":
            return [sql("CREATE TABLE oracle_t%d (a INT)" % n)]
        if name == "recreate_facts":
            # Dropped and created again, empty. A sweep in between
            # would only show the circuit breaker, which cools down on
            # the work clock and so opens sooner in a cached server.
            return [sql("DROP TABLE %s" % facts), sql(self.create_facts)]
        raise ValueError(name)


WRITE_STEPS = (
    "insert_curated", "partial_insert", "update_curated", "delete_curated",
    "update_entity", "insert_generated", "update_generated",
    "delete_generated",
    "add_doc", "add_text_factless", "add_text_fact", "create_table",
    "recreate_facts",
)


def _interleavings():
    burst = st.lists(st.integers(0, 9), min_size=1, max_size=6)
    return st.lists(st.one_of(burst, st.sampled_from(WRITE_STEPS)),
                    min_size=1, max_size=8)


class TestStaleAnswerOracle:
    @pytest.mark.parametrize("domain", DOMAINS)
    @settings(max_examples=12, deadline=None)
    @given(steps=_interleavings())
    def test_cached_equals_uncached_at_every_step(self, domain, steps):
        oracle = Oracle(domain)
        oracle.sweep()
        for step in steps:
            if isinstance(step, str):
                oracle.step(step)
            else:
                oracle.serve([ask(oracle.pool[i]) for i in step])

    @pytest.mark.parametrize("domain", DOMAINS)
    def test_every_write_step_in_turn(self, domain):
        # Each kind of write at least once, whatever the draws reach.
        oracle = Oracle(domain)
        oracle.sweep()
        for name in WRITE_STEPS:
            oracle.step(name)

    def test_write_steps_change_answers(self):
        # The oracle has teeth: its row writes, fact text and DDL each
        # move some answer of the pool.
        for name in ("insert_curated", "partial_insert",
                     "update_generated", "add_text_fact", "recreate_facts"):
            oracle = Oracle("ecommerce")
            before = oracle.sweep()
            oracle.serve(oracle.requests(name, 1))
            assert oracle.sweep() != before, name


TOTAL_QUESTION = "Find the total sales of Stark Labs products in Q2."
REVIEW_QUESTION = ("How much did satisfaction with the Alpha Camera "
                   "change in Q1 2024?")


class TestScopedInvalidation:
    def test_sales_insert_keeps_review_answer_drops_sales_answer(self):
        oracle = Oracle("ecommerce")
        asks = [ask(TOTAL_QUESTION), ask(REVIEW_QUESTION)]
        before = oracle.serve(asks)
        after = oracle.serve(oracle.requests("insert_curated", 1)
                             + asks)[1:]
        assert after[0] != before[0] and after[1] == before[1]
        answer = oracle.cached.stats()["cache"]["answer"]
        # The sales answer was dropped and recomputed; the review_facts
        # answer survived the write and was served from the cache.
        assert answer["invalidations"] == 1
        assert answer["hits"] == 1

    def test_document_write_keeps_every_answer(self):
        oracle = Oracle("healthcare")
        oracle.sweep()
        oracle.step("add_doc")
        answer = oracle.cached.stats()["cache"]["answer"]
        assert answer["invalidations"] == 0
        assert answer["hits"] == len(oracle.pool)

    def test_row_write_keeps_plans_and_ddl_drops_them(self):
        oracle = Oracle("ecommerce")
        oracle.sweep()
        oracle.step("insert_curated")
        plan = oracle.cached.stats()["cache"]["plan"]
        assert plan["invalidations"] == 0 and plan["hits"] > 0
        oracle.step("create_table")
        assert oracle.cached.stats()["cache"]["plan"]["invalidations"] > 0

    def test_survivor_takes_the_new_clock(self):
        oracle = Oracle("ecommerce")
        oracle.serve([ask(REVIEW_QUESTION)])
        oracle.serve([add_doc("clock-doc", {"name": "Clock"})])
        generations = oracle.cached.cache.generations
        [(_key, entry)] = oracle.cached.cache.answers.lru._entries.items()
        assert entry.tag < generations.clock
        oracle.serve([ask(REVIEW_QUESTION)])
        assert entry.tag == generations.clock


class TestReadRecording:
    def db(self):
        db = Database()
        db.execute("CREATE TABLE a (x INT)")
        db.execute("CREATE TABLE b (x INT, y INT)")
        db.execute("CREATE TABLE c (z INT)")
        db.execute("INSERT INTO a VALUES (1)")
        return db

    def test_selects_record_the_tables_they_read(self):
        db = self.db()
        reads = set()
        db.record_reads(reads)
        db.execute("SELECT x FROM a")
        db.execute("SELECT a.x FROM a JOIN b ON a.x = b.x")
        db.record_reads(None)
        db.execute("SELECT z FROM c")
        assert reads == {"a", "b"}

    def test_row_write_counters_are_per_table_and_monotone(self):
        db = self.db()
        assert (db.row_writes("a"), db.row_writes("b")) == (1, 0)
        db.execute("UPDATE a SET x = 2")
        db.execute("DELETE FROM b")  # no row deleted: nothing written
        assert (db.row_writes("a"), db.row_writes("b")) == (2, 0)
        db.execute("INSERT INTO b VALUES (1, 2)")
        db.execute("DROP TABLE b")
        db.execute("CREATE TABLE b (x INT, y INT)")
        assert db.row_writes("b") == 1


# ----------------------------------------------------------------------
# Why the scoping is sound
# ----------------------------------------------------------------------

def _graph_state(pipeline):
    graph = pipeline.graph
    return ({node.node_id: (node.kind, node.label, node.payload)
             for node in graph.nodes()},
            {(edge.source, edge.target, edge.kind, edge.label)
             for edge in graph.edges()})


class TestScopingIsSound:
    @pytest.mark.parametrize("domain", DOMAINS)
    def test_rows_and_documents_reach_the_graph_only_at_build(self,
                                                               domain):
        lake = generate_lake(domain, SEED)
        _system, pipeline = build_hybrid_system(lake, SEED)
        before = _graph_state(pipeline)
        entities = TABLES[domain][3]
        db = pipeline.db
        rows = first_rows(db)
        db.execute(_copy_row(rows, entities, **{
            rows[entities][0][0]: 1000, "name": "Zorblax Gadget",
            "name_key": "zorblax gadget"}))
        _doc_id, document = pipeline.doc_store.scan().__next__()
        pipeline.doc_store.put("late-doc", {
            path: "Quuxor " + value if isinstance(value, str) else value
            for path, value in document.items()})
        assert _graph_state(pipeline) == before
        pipeline.build()
        nodes = _graph_state(pipeline)[0]
        assert "entity:zorblax gadget" in nodes
        assert "record:doc:late-doc" in nodes

    def test_the_ask_path_never_reads_the_document_store(self,
                                                         monkeypatch):
        stacks = []
        for domain in DOMAINS:
            lake = generate_lake(domain, SEED)
            _system, pipeline = build_hybrid_system(lake, SEED)
            pool = [pair.question for pair in lake.qa_pairs(per_kind=2)]
            stacks.append((pipeline, pool,
                           [pipeline.answer(q).fingerprint()
                            for q in pool]))
        calls = []

        def refuse(name):
            def read(*_args, **_kwargs):
                calls.append(name)
                raise AssertionError("DocumentStore.%s on the ask path"
                                     % name)
            return read

        for name in ("get", "ids", "scan", "find_equal", "find",
                     "project", "dump_json", "__len__", "__contains__"):
            monkeypatch.setattr(DocumentStore, name, refuse(name))
        for pipeline, pool, want in stacks:
            answers = [pipeline.answer(q) for q in pool]
            assert [a.fingerprint() for a in answers] == want
            assert not any(a.metadata.get("degraded") for a in answers)
        assert calls == []
