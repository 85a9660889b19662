"""The SQL engine speaks one dialect: the grammar in ``sql_parser``.

* **Boundary** — every construct outside the grammar raises
  :class:`SQLSyntaxError` at parse time, positioned at the token that
  leaves it; a served write in such a form degrades, never raises.
* **Census** — every statement the system sends ``Database.execute``
  (both lakes' suites and curated SQL, the load specs' writes, the
  benchmark's INSERT shape and E5's gold specs, lowered) is a fixed
  point of ``parse(render_statement(stmt))``.
"""

import importlib.util
import json
import pathlib
import random
import sys
import textwrap

import pytest

from repro.bench import LakeSpec, generate_ecommerce_lake
from repro.bench.runner import (
    StackConfig, build_hybrid_system, build_stack, generate_lake,
)
from repro.errors import SQLSyntaxError
from repro.metering import CostMeter
from repro.semql import QueryCompiler
from repro.serving import ServeRequest
from repro.storage.relational import Database
from repro.storage.relational import sql_parser
from repro.storage.relational.sql_parser import parse, render_statement

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"

#: One case per removed construct; ``^`` marks the offending token.
OUTSIDE = [
    "SELECT ^DISTINCT a FROM t",
    "SELECT a FROM t ORDER BY a LIMIT 5 ^OFFSET 2",
    "SELECT a FROM t ^LEFT JOIN u ON t.a = u.a",
    "SELECT a FROM t ^LEFT OUTER JOIN u ON t.a = u.a",
    "SELECT a FROM t ^RIGHT JOIN u ON t.a = u.a",
    "SELECT a FROM t ^OUTER JOIN u ON t.a = u.a",
    "SELECT a FROM t WHERE a = 1 ^OR a = 2",
    "SELECT a FROM t WHERE (a = 1 ^OR a = 2)",
    "SELECT a FROM t WHERE ^NOT a = 1",
    "SELECT a FROM t WHERE a ^IS NULL",
    "SELECT a FROM t WHERE a ^IS NOT NULL",
    "SELECT a FROM t WHERE a ^IN (1, 2)",
    "SELECT a FROM t WHERE a ^NOT IN (1, 2)",
    "SELECT a FROM t WHERE b ^NOT LIKE 'x%'",
    "SELECT a FROM t WHERE a ^BETWEEN 1 AND 2",
    "SELECT a FROM t WHERE a ^NOT BETWEEN 1 AND 2",
    "SELECT a ^+ 1 FROM t",
    "SELECT a ^- 1 FROM t",
    "SELECT a ^* 2 FROM t",
    "SELECT a ^/ 2 FROM t",
    "SELECT a ^% 2 FROM t",
    "SELECT ^-a FROM t",
    "SELECT a FROM t WHERE a = 1 ^- 2",
    "SELECT a FROM t WHERE a = ^-'x'",
    "SELECT a FROM t WHERE a = ^+5",
    "SELECT ^UPPER(b) FROM t",
    "SELECT ^COALESCE(a, 0) FROM t",
    "SELECT a FROM t WHERE ^LENGTH(b) > 2",
    "SELECT COUNT(*) FROM t HAVING ^ABS(COUNT(*)) > 1",
    "SELECT SUM(^DISTINCT a) FROM t",
    "SELECT AVG(^DISTINCT a) FROM t",
    "SELECT MIN(^DISTINCT a) FROM t",
    "SELECT MAX(^DISTINCT a) FROM t",
    "SELECT SUM(^'x') FROM t",
    "SELECT SUM(^*) FROM t",
    "CREATE ^VIEW v AS SELECT a FROM t",
    "DROP ^VIEW v",
    "^BEGIN",
    "^BEGIN TRANSACTION",
    "^COMMIT",
    "^ROLLBACK",
    "INSERT INTO t VALUES (^-'x', 1)",
    "INSERT INTO t VALUES (1, ^-NULL)",
    "INSERT INTO t VALUES (^-TRUE)",
    "UPDATE t SET a = a ^+ 1",
    "UPDATE t SET a = ^b",
    "UPDATE t SET a = ^-b",
]


@pytest.mark.parametrize("marked", OUTSIDE)
def test_outside_the_grammar_is_a_syntax_error_at_its_token(marked):
    position = marked.index("^")
    sql = marked.replace("^", "", 1)
    with pytest.raises(SQLSyntaxError) as info:
        parse(sql)
    assert info.value.position == position, (sql, str(info.value))


def test_the_api_docs_carry_the_parser_grammar():
    doc = sql_parser.__doc__
    grammar = doc[doc.index("Grammar::") + len("Grammar::"):
                  doc.index("\n\nAn aggregate")]
    api = (ROOT / "docs" / "API.md").read_text(encoding="utf-8")
    start = api.index("```", api.index("Its grammar")) + len("```")
    block = api[start:api.index("```", start)]
    assert textwrap.dedent(block).strip() == textwrap.dedent(grammar).strip()


def test_a_sign_binds_only_to_the_number_after_it():
    assert parse("INSERT INTO t VALUES (-5, - 2.5)").rows == [(-5, -2.5)]
    stmt = parse("UPDATE t SET a = -1 WHERE b > -3")
    assert stmt.assignments == [("a", -1)]
    assert render_statement(stmt) == "UPDATE t SET a = -1 WHERE (b > (- 3))"


def test_a_served_write_outside_the_grammar_degrades():
    _lake, _pipeline, server = build_stack(
        StackConfig(domain="ecommerce", seed=7))
    statement = "INSERT INTO sales VALUES (-'x', 1, 'Q1', 2024, 5.0)"
    [result] = server.serve([ServeRequest("sql", {"statement": statement})])
    assert result.detail.startswith("write failed")


# ----------------------------------------------------------------------
# Census
# ----------------------------------------------------------------------

def _assert_fixed_point(statement):
    stmt = parse(statement) if isinstance(statement, str) else statement
    rendered = render_statement(stmt)
    assert parse(rendered) == stmt, rendered
    assert render_statement(parse(rendered)) == rendered


def _load(path, name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def executed(monkeypatch):
    """Every statement ``Database.execute`` receives while in use."""
    seen = []
    execute = Database.execute

    def recorder(self, sql):
        seen.append(sql)
        return execute(self, sql)

    monkeypatch.setattr(Database, "execute", recorder)
    return seen


@pytest.mark.parametrize("domain", ["ecommerce", "healthcare"])
def test_census_of_the_lake_suites(domain, executed):
    lake = generate_lake(domain, 7)
    _system, pipe = build_hybrid_system(lake, seed=7)
    for pair in lake.qa_pairs():
        pipe.answer(pair.question)
    texts = [s for s in executed if isinstance(s, str)]
    assert set(lake.sql_statements()) <= set(texts)
    assert len(executed) - len(texts) > 10  # statements semql lowered
    for statement in executed:
        _assert_fixed_point(statement)


def test_census_of_the_load_spec_writes():
    writes = []
    for path in sorted((BENCHMARKS / "specs").glob("load_*.json")):
        spec = json.loads(path.read_text(encoding="utf-8"))
        writes += [w["statement"] for w in spec.get("writes", ())
                   if w["op"] == "sql"]
    assert len(writes) >= 3
    for statement in writes:
        _assert_fixed_point(statement)


def test_census_of_the_benchmark_insert_shape(monkeypatch):
    workloads = _load(BENCHMARKS / "perf" / "workloads.py", "perf_workloads",
                      monkeypatch)
    rng = random.Random(7)
    for domain in (workloads.ECOMMERCE, workloads.HEALTHCARE):
        lake = generate_lake(("ecommerce", "healthcare")[domain], 7)
        mirror = workloads.FactMirror(domain, lake)
        entity = sorted(mirror.entity_id)[0]
        for quarter in ("Q1", "Q4"):
            _assert_fixed_point(mirror.insert(entity, quarter, rng))


def test_census_of_e5_gold_specs(executed, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    e5 = _load(BENCHMARKS / "bench_e5_synthesis.py", "bench_e5_census",
               monkeypatch)
    lake = generate_ecommerce_lake(LakeSpec(n_products=10, seed=51))
    db = Database(meter=CostMeter())
    for statement in lake.sql_statements():
        db.execute(statement)
    # The change table E5 adds; its rows do not matter here.
    db.execute("CREATE TABLE changes (cid INT PRIMARY KEY, subject TEXT, "
               "quarter TEXT, change_percent FLOAT)")
    compiler = QueryCompiler(db)
    gold = [spec for _kind, _question, spec in e5.gold_cases(lake)]
    for spec in gold:
        compiler.execute(spec)
    assert any(spec.joins for spec in gold)
    assert any(agg.distinct for spec in gold for agg in spec.aggregates)
    for statement in executed:
        _assert_fixed_point(statement)
