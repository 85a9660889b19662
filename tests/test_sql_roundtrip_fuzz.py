"""Grammar-driven SQL round-trip fuzz.

Generates random statements from the engine's own grammar using a
seed-fixed stdlib :class:`random.Random` (no third-party fuzz deps)
and pins two contracts of :func:`repro.storage.relational.sql_parser.
render_statement`:

* **Fixed point** — ``parse(render_statement(parse(sql)))`` equals the
  first parse, and the rendered text re-renders to itself byte for
  byte.
* **Behavioral identity** — original and re-rendered SQL are
  interchangeable: identical result sets for SELECT against the same
  database, identical end state when a DML sequence is applied to twin
  databases, identical tables after CREATE + INSERT.

Identifiers are drawn from a pool verified against the lexer's keyword
set, floats always render with a decimal point (the lexer has no
exponent form), and ORDER BY never references aggregates.
"""

import random

import pytest

from repro.storage.relational import Database
from repro.storage.relational.sql_parser import parse, render_statement

SEED = 20250805

# Fuzz tables: every identifier checked against sql_lexer.KEYWORDS.
COLUMNS = {
    "t0": (("id", "int"), ("name", "text"), ("price", "float"),
           ("active", "bool")),
    "t1": (("id", "int"), ("ref", "int"), ("qty", "int"),
           ("note", "text")),
}
CREATE_SQL = (
    "CREATE TABLE t0 (id INT, name TEXT, price FLOAT, active BOOL)",
    "CREATE TABLE t1 (id INT, ref INT, qty INT, note TEXT)",
)
WORDS = ("alpha", "beta", "gamma", "widget", "gizmo", "o'brien",
         "delta kit", "probe")
LIKE_PATTERNS = ("wid%", "%et", "_lpha", "%a%", "g_zmo", "o'b%")
SPARE_NAMES = ("label", "score", "flag", "stamp", "title", "total")
SPARE_TYPES = ("int", "integer", "float", "real", "text", "varchar",
               "bool", "boolean", "date")


def _sql_str(value):
    return "'%s'" % value.replace("'", "''")


def _literal(rng, kind):
    """One random SQL literal of the given column kind."""
    if rng.random() < 0.08:
        return "NULL"
    if kind == "int":
        return str(rng.randint(-40, 160))
    if kind == "float":
        return "%.2f" % rng.uniform(0.5, 240.0)
    if kind == "bool":
        return "TRUE" if rng.random() < 0.5 else "FALSE"
    return _sql_str(rng.choice(WORDS))


def _column(rng, tables):
    """Pick (rendered_ref, kind); qualified when several tables are in
    scope."""
    table = rng.choice(tables)
    name, kind = rng.choice(COLUMNS[table])
    if len(tables) > 1:
        return "%s.%s" % (table, name), kind
    return name, kind


def _predicate(rng, tables, depth=0):
    roll = rng.random()
    if depth < 2 and roll < 0.28:
        return "(%s %s %s)" % (
            _predicate(rng, tables, depth + 1),
            rng.choice(("AND", "OR")),
            _predicate(rng, tables, depth + 1),
        )
    if depth < 2 and roll < 0.36:
        return "(NOT %s)" % _predicate(rng, tables, depth + 1)
    col, kind = _column(rng, tables)
    shape = rng.random()
    negated = "NOT " if rng.random() < 0.3 else ""
    if shape < 0.14:
        return "(%s IS %sNULL)" % (col, negated)
    if shape < 0.28:
        options = ", ".join(
            _literal(rng, kind) for _ in range(rng.randint(2, 4))
        )
        return "(%s %sIN (%s))" % (col, negated, options)
    if kind in ("int", "float") and shape < 0.42:
        low = rng.randint(-10, 60)
        return "(%s BETWEEN %d AND %d)" % (
            col, low, low + rng.randint(0, 90)
        )
    if kind == "text" and shape < 0.5:
        return "(%s %sLIKE %s)" % (
            col, negated, _sql_str(rng.choice(LIKE_PATTERNS))
        )
    op = rng.choice(("=", "!=", "<>", "<", "<=", ">", ">="))
    return "(%s %s %s)" % (col, op, _literal(rng, kind))


def _projection(rng, tables):
    """1-3 select items; scalar functions and arithmetic mixed in.

    Returns ``(sql, orderable)`` where *orderable* holds the plain,
    unaliased column refs — ORDER BY runs post-projection, so it may
    only name columns present in the output.
    """
    items, orderable = [], []
    for _ in range(rng.randint(1, 3)):
        col, kind = _column(rng, tables)
        roll = rng.random()
        if kind == "text" and roll < 0.15:
            item = "%s(%s)" % (rng.choice(("UPPER", "LOWER", "LENGTH")),
                               col)
        elif kind in ("int", "float") and roll < 0.15:
            item = "(%s %s %d)" % (col, rng.choice(("+", "-", "*")),
                                   rng.randint(1, 9))
        else:
            item = col
        if item == col and rng.random() >= 0.2:
            orderable.append(col)
        elif rng.random() < 0.5:
            item += " AS %s" % rng.choice(SPARE_NAMES)
        items.append(item)
    return ", ".join(items), orderable


def _order_limit(rng, orderable, sql):
    if orderable and rng.random() < 0.4:
        sql += " ORDER BY %s" % rng.choice(orderable)
        if rng.random() < 0.5:
            sql += " DESC"
    if rng.random() < 0.4:
        sql += " LIMIT %d" % rng.randint(1, 8)
        if rng.random() < 0.5:
            sql += " OFFSET %d" % rng.randint(0, 3)
    return sql


def _aggregate_select(rng):
    table = rng.choice(("t0", "t1"))
    group = "active" if table == "t0" else "ref"
    numeric = "price" if table == "t0" else "qty"
    agg = rng.choice((
        "COUNT(*)",
        "COUNT(id)",
        "COUNT(DISTINCT %s)" % group,
        "SUM(%s)" % numeric,
        "AVG(%s)" % numeric,
        "MIN(%s)" % numeric,
        "MAX(%s)" % numeric,
    ))
    item = agg + (" AS total" if rng.random() < 0.3 else "")
    sql = "SELECT %s, %s FROM %s" % (group, item, table)
    if rng.random() < 0.5:
        sql += " WHERE " + _predicate(rng, [table])
    sql += " GROUP BY %s" % group
    if rng.random() < 0.4:
        # HAVING may only reference aggregates from the select list.
        threshold = (rng.randint(1, 3) if agg.startswith("COUNT")
                     else rng.randint(5, 120))
        sql += " HAVING (%s >= %d)" % (agg, threshold)
    if rng.random() < 0.4:
        sql += " ORDER BY %s" % group
    return sql


def _join_select(rng):
    items, orderable = _projection(rng, ["t0", "t1"])
    kind = rng.choice(("JOIN", "INNER JOIN", "LEFT JOIN"))
    sql = "SELECT %s FROM t0 %s t1 ON (t0.id = t1.ref)" % (items, kind)
    if rng.random() < 0.6:
        sql += " WHERE " + _predicate(rng, ["t0", "t1"])
    return _order_limit(rng, orderable, sql)


def _plain_select(rng):
    table = rng.choice(("t0", "t1"))
    if rng.random() < 0.2:
        sql = "SELECT * FROM %s" % table
        orderable = [name for name, _ in COLUMNS[table]]
    else:
        distinct = "DISTINCT " if rng.random() < 0.2 else ""
        items, orderable = _projection(rng, [table])
        sql = "SELECT %s%s FROM %s" % (distinct, items, table)
    if rng.random() < 0.7:
        sql += " WHERE " + _predicate(rng, [table])
    return _order_limit(rng, orderable, sql)


def _select(rng):
    roll = rng.random()
    if roll < 0.2:
        return _aggregate_select(rng)
    if roll < 0.4:
        return _join_select(rng)
    return _plain_select(rng)


def _insert(rng, table):
    columns = [name for name, _ in COLUMNS[table]]
    kinds = dict(COLUMNS[table])
    rng.shuffle(columns)
    rows = []
    for _ in range(rng.randint(1, 3)):
        rows.append("(%s)" % ", ".join(
            _literal(rng, kinds[c]) for c in columns
        ))
    return "INSERT INTO %s (%s) VALUES %s" % (
        table, ", ".join(columns), ", ".join(rows)
    )


def _update(rng, table):
    kinds = dict(COLUMNS[table])
    targets = rng.sample(sorted(kinds), rng.randint(1, 2))
    parts = []
    for col in targets:
        if kinds[col] in ("int", "float") and rng.random() < 0.3:
            parts.append("%s = (%s + %d)" % (col, col, rng.randint(1, 5)))
        else:
            parts.append("%s = %s" % (col, _literal(rng, kinds[col])))
    sql = "UPDATE %s SET %s" % (table, ", ".join(parts))
    if rng.random() < 0.85:
        sql += " WHERE " + _predicate(rng, [table])
    return sql


def _delete(rng, table):
    sql = "DELETE FROM %s" % table
    if rng.random() < 0.9:
        sql += " WHERE " + _predicate(rng, [table])
    return sql


def _create_table(rng, index):
    n_cols = rng.randint(2, 5)
    names = rng.sample(SPARE_NAMES, n_cols)
    cols, int_cols = [], []
    for name in names:
        dtype = rng.choice(SPARE_TYPES)
        if dtype in ("int", "integer"):
            int_cols.append(name)
        text = "%s %s" % (name, dtype.upper())
        if rng.random() < 0.3:
            text += " NOT NULL"
        cols.append(text)
    trailer = ""
    if int_cols and rng.random() < 0.5:
        key = rng.choice(int_cols)
        if rng.random() < 0.5:
            trailer = ", PRIMARY KEY (%s)" % key
        else:
            cols = [c + " PRIMARY KEY" if c.split()[0] == key else c
                    for c in cols]
    return "CREATE TABLE u%d (%s%s)" % (index, ", ".join(cols), trailer)


def _roundtrip(sql):
    """Assert the parse→render→parse fixed point; return rendered SQL."""
    first = parse(sql)
    rendered = render_statement(first)
    second = parse(rendered)
    if not isinstance(first, type(second)):  # pragma: no cover
        pytest.fail("round trip changed statement type for %r" % sql)
    assert render_statement(second) == rendered, sql
    return first, second, rendered


def _seed_database(rng):
    db = Database()
    for create in CREATE_SQL:
        db.execute(create)
    for table in ("t0", "t1"):
        for _ in range(rng.randint(8, 14)):
            db.execute(_insert(rng, table))
    return db


def _dump(db):
    out = {}
    for name in db.table_names():
        result = db.execute("SELECT * FROM %s" % name)
        out[name] = (result.columns, result.rows)
    return out


class TestSelectRoundTrip:
    def test_fuzzed_selects_fixed_point_and_identical_results(self):
        rng = random.Random(SEED)
        db = _seed_database(rng)
        for _ in range(150):
            sql = _select(rng)
            first, second, rendered = _roundtrip(sql)
            assert second == first, "AST drift for %r -> %r" % (
                sql, rendered
            )
            original = db.execute(sql)
            replayed = db.execute(rendered)
            assert replayed.columns == original.columns, sql
            assert replayed.rows == original.rows, sql

    def test_schema_qualified_and_aliased_select(self):
        # A deterministic case covering table aliases, which the fuzzer
        # leaves out to keep the grammar sample independent.
        sql = ("SELECT a.name AS title, b.qty FROM t0 AS a "
               "LEFT JOIN t1 AS b ON (a.id = b.ref) "
               "WHERE (b.qty IS NOT NULL) ORDER BY b.qty DESC LIMIT 3")
        first, second, rendered = _roundtrip(sql)
        assert second == first
        rng = random.Random(SEED + 1)
        db = _seed_database(rng)
        assert db.execute(rendered).rows == db.execute(sql).rows


class TestDMLRoundTrip:
    def test_fuzzed_dml_identical_on_twin_databases(self):
        rng = random.Random(SEED + 2)
        seed_ops = []
        db_a = Database()
        db_b = Database()
        for create in CREATE_SQL:
            db_a.execute(create)
            db_b.execute(create)
        for _ in range(60):
            table = rng.choice(("t0", "t1"))
            roll = rng.random()
            if roll < 0.5:
                sql = _insert(rng, table)
            elif roll < 0.8:
                sql = _update(rng, table)
            else:
                sql = _delete(rng, table)
            first, second, rendered = _roundtrip(sql)
            assert second == first, sql
            result_a = db_a.execute(sql)
            result_b = db_b.execute(rendered)
            assert result_b.rows == result_a.rows, sql
            seed_ops.append(sql)
        assert _dump(db_b) == _dump(db_a)
        assert any("UPDATE" in op for op in seed_ops)
        assert any("DELETE" in op for op in seed_ops)


class TestDDLRoundTrip:
    def test_fuzzed_create_table_fixed_point(self):
        rng = random.Random(SEED + 3)
        for index in range(40):
            sql = _create_table(rng, index)
            first, second, rendered = _roundtrip(sql)
            schema_a, schema_b = first.schema, second.schema
            assert schema_b.name == schema_a.name, sql
            assert schema_b.primary_key == schema_a.primary_key, sql
            assert [
                (c.name, c.dtype, c.nullable) for c in schema_b.columns
            ] == [
                (c.name, c.dtype, c.nullable) for c in schema_a.columns
            ], sql

    def test_created_twins_accept_identical_rows(self):
        rng = random.Random(SEED + 4)
        fill = {"int": "7", "integer": "7", "float": "1.25",
                "real": "1.25", "text": "'x'", "varchar": "'x'",
                "bool": "TRUE", "boolean": "TRUE",
                "date": "'2024-05-01'"}
        for index in range(10):
            sql = _create_table(rng, index)
            _, _, rendered = _roundtrip(sql)
            db_a, db_b = Database(), Database()
            db_a.execute(sql)
            db_b.execute(rendered)
            schema = db_a.table("u%d" % index).schema
            values = ", ".join(
                fill[column.dtype.value] for column in schema.columns
            )
            insert = "INSERT INTO u%d VALUES (%s)" % (index, values)
            db_a.execute(insert)
            db_b.execute(insert)
            assert _dump(db_b) == _dump(db_a)

    def test_statement_variety_round_trips(self):
        for sql in (
            "BEGIN",
            "COMMIT",
            "ROLLBACK",
            "DROP TABLE t0",
            "DROP VIEW v0",
            "CREATE VIEW v0 AS SELECT id FROM t0 WHERE (active = TRUE)",
        ):
            first, second, _ = _roundtrip(sql)
            assert second == first, sql
