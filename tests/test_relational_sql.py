"""End-to-end SQL tests: lexer, parser, planner, executor, database."""

import datetime as dt

import pytest

from repro.errors import (
    ExecutionError, PlanError, SchemaError, SQLSyntaxError, StorageError,
)
from repro.metering import CostMeter
from repro.storage.relational import Database
from repro.storage.relational.sql_lexer import lex
from repro.storage.relational.sql_parser import parse


@pytest.fixture
def db():
    database = Database(meter=CostMeter())
    database.execute(
        "CREATE TABLE products (pid INT PRIMARY KEY, name TEXT, "
        "manufacturer TEXT, price FLOAT)"
    )
    database.execute(
        "CREATE TABLE sales (sid INT PRIMARY KEY, pid INT, quarter TEXT, "
        "amount FLOAT, sold_on DATE)"
    )
    database.execute(
        "INSERT INTO products VALUES "
        "(1, 'Alpha Widget', 'Acme', 19.99), "
        "(2, 'Beta Gadget', 'Globex', 29.99), "
        "(3, 'Gamma Gizmo', 'Acme', 9.99)"
    )
    database.execute(
        "INSERT INTO sales VALUES "
        "(1, 1, 'Q1', 100.0, '2024-01-15'), "
        "(2, 1, 'Q2', 120.0, '2024-04-15'), "
        "(3, 2, 'Q1', 200.0, '2024-02-01'), "
        "(4, 2, 'Q2', 180.0, '2024-05-01'), "
        "(5, 3, 'Q2', 50.0, '2024-06-01')"
    )
    return database


class TestLexer:
    def test_keywords_and_idents(self):
        kinds = [(t.kind, t.text) for t in lex("SELECT a FROM t")]
        assert kinds[0] == ("KW", "SELECT")
        assert kinds[1] == ("IDENT", "a")

    def test_string_escape(self):
        toks = lex("SELECT 'it''s'")
        assert toks[1].text == "it's"

    def test_unterminated_string(self):
        with pytest.raises(SQLSyntaxError):
            lex("SELECT 'oops")

    def test_comment_skipped(self):
        toks = lex("SELECT a -- comment\nFROM t")
        assert [t.text for t in toks[:4]] == ["SELECT", "a", "FROM", "t"]

    def test_numbers(self):
        toks = lex("1 2.5 0.75")
        assert [t.text for t in toks[:3]] == ["1", "2.5", "0.75"]

    def test_operators(self):
        toks = lex("a <= b <> c != d")
        ops = [t.text for t in toks if t.kind == "OP"]
        assert ops == ["<=", "<>", "!="]

    def test_illegal_char(self):
        with pytest.raises(SQLSyntaxError):
            lex("SELECT @")


class TestParser:
    def test_simple_select(self):
        stmt = parse("SELECT a, b FROM t WHERE a > 1")
        assert stmt.table.name == "t"
        assert len(stmt.items) == 2

    def test_star(self):
        assert parse("SELECT * FROM t").star

    def test_alias(self):
        stmt = parse("SELECT a AS x FROM t y")
        assert stmt.items[0].alias == "x"
        assert stmt.table.alias == "y"

    def test_join_parsed(self):
        stmt = parse(
            "SELECT * FROM a JOIN b ON a.id = b.id INNER JOIN c ON b.x = c.x"
        )
        assert [j.table.name for j in stmt.joins] == ["b", "c"]

    def test_group_order_limit(self):
        stmt = parse(
            "SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 1 "
            "ORDER BY a DESC LIMIT 5"
        )
        assert len(stmt.group_by) == 1
        assert stmt.having is not None
        assert stmt.order_by[0].descending
        assert stmt.limit == 5

    def test_aggregate_distinct(self):
        stmt = parse("SELECT COUNT(DISTINCT a) FROM t")
        assert stmt.items[0].expr.distinct

    def test_create_table(self):
        stmt = parse(
            "CREATE TABLE t (a INT NOT NULL, b TEXT, PRIMARY KEY (a))"
        )
        assert stmt.schema.primary_key == "a"
        assert not stmt.schema.column("a").nullable

    def test_insert(self):
        stmt = parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)")
        assert stmt.rows == [(1, "x"), (2, None)]

    def test_negative_literal(self):
        stmt = parse("INSERT INTO t VALUES (-5)")
        assert stmt.rows == [(-5,)]

    def test_date_literal(self):
        stmt = parse("SELECT * FROM t WHERE d = '2024-01-02'")
        lit = stmt.where.right
        assert lit.value == dt.date(2024, 1, 2)

    def test_syntax_errors(self):
        for bad in (
            "SELECT", "SELECT FROM t", "SELECT a FROM", "DELETE t",
            "SELECT a FROM t WHERE", "SELECT a FROM t GROUP a",
            "SELECT a FROM t extra junk here )",
        ):
            with pytest.raises(SQLSyntaxError) as exc:
                parse(bad)
            # Every parser raise site carries the offending token's
            # character offset (EOF reports len(sql)).
            assert 0 <= exc.value.position <= len(bad), bad
            assert "at position" in str(exc.value), bad

    def test_right_join_unsupported(self):
        sql = "SELECT * FROM a RIGHT JOIN b ON a.x = b.x"
        with pytest.raises(SQLSyntaxError) as exc:
            parse(sql)
        # The position points at RIGHT itself, not the token after it.
        assert exc.value.position == sql.index("RIGHT")

    def test_error_position_points_at_offending_token(self):
        sql = "SELECT a FROM t GROUP a"
        with pytest.raises(SQLSyntaxError) as exc:
            parse(sql)
        assert exc.value.position == sql.rindex("a")


class TestExecution:
    def test_filter(self, db):
        rs = db.execute("SELECT name FROM products WHERE price < 20")
        assert sorted(rs.column("name")) == ["Alpha Widget", "Gamma Gizmo"]

    def test_star_projection(self, db):
        rs = db.execute("SELECT * FROM products")
        assert rs.columns == ["pid", "name", "manufacturer", "price"]
        assert len(rs) == 3

    def test_expression_projection(self, db):
        rs = db.execute("SELECT name, price > 20 AS pricey "
                        "FROM products ORDER BY pid")
        assert rs.column("pricey") == [False, True, False]

    def test_like(self, db):
        rs = db.execute("SELECT name FROM products WHERE name LIKE '%widget%'")
        assert rs.column("name") == ["Alpha Widget"]

    def test_order_by_desc(self, db):
        rs = db.execute("SELECT name FROM products ORDER BY price DESC")
        assert rs.column("name")[0] == "Beta Gadget"

    def test_order_by_two_keys(self, db):
        rs = db.execute(
            "SELECT quarter, amount FROM sales ORDER BY quarter, amount DESC"
        )
        assert rs.rows[0] == ("Q1", 200.0)

    def test_limit(self, db):
        rs = db.execute("SELECT sid FROM sales ORDER BY sid DESC LIMIT 2")
        assert rs.column("sid") == [5, 4]

    def test_inner_join(self, db):
        rs = db.execute(
            "SELECT p.name, s.amount FROM products p "
            "JOIN sales s ON p.pid = s.pid WHERE s.quarter = 'Q2'"
        )
        assert len(rs) == 3

    def test_group_by_aggregates(self, db):
        rs = db.execute(
            "SELECT quarter, SUM(amount) AS total, COUNT(*) AS n "
            "FROM sales GROUP BY quarter ORDER BY quarter"
        )
        assert rs.to_dicts() == [
            {"quarter": "Q1", "total": 300.0, "n": 2},
            {"quarter": "Q2", "total": 350.0, "n": 3},
        ]

    def test_having(self, db):
        rs = db.execute(
            "SELECT quarter, COUNT(*) AS n FROM sales GROUP BY quarter "
            "HAVING COUNT(*) > 2"
        )
        assert rs.to_dicts() == [{"quarter": "Q2", "n": 3}]

    def test_global_aggregate(self, db):
        rs = db.execute("SELECT AVG(price) AS avg_price FROM products")
        assert rs.scalar() == pytest.approx((19.99 + 29.99 + 9.99) / 3)

    def test_global_aggregate_empty_table(self, db):
        db.execute("CREATE TABLE empty (x INT)")
        rs = db.execute("SELECT COUNT(*) AS n, SUM(x) AS s FROM empty")
        assert rs.to_dicts() == [{"n": 0, "s": None}]

    def test_count_distinct(self, db):
        rs = db.execute("SELECT COUNT(DISTINCT manufacturer) FROM products")
        assert rs.scalar() == 2

    def test_aggregate_join_pipeline(self, db):
        rs = db.execute(
            "SELECT p.manufacturer, SUM(s.amount) AS total "
            "FROM products p JOIN sales s ON p.pid = s.pid "
            "GROUP BY p.manufacturer ORDER BY total DESC"
        )
        assert rs.rows[0][0] == "Globex"
        assert rs.rows[0][1] == pytest.approx(380.0)

    def test_scalar_functions(self, db):
        rs = db.execute("SELECT LOWER(name) AS u FROM products WHERE pid = 1")
        assert rs.scalar() == "alpha widget"
        rs = db.execute("SELECT LOWER(sold_on) AS d FROM sales WHERE sid = 1")
        assert rs.scalar() == "2024-01-15"

    def test_date_comparison(self, db):
        rs = db.execute(
            "SELECT sid FROM sales WHERE sold_on >= '2024-04-01'"
        )
        assert sorted(rs.column("sid")) == [2, 4, 5]

    def test_group_by_validation(self, db):
        with pytest.raises(PlanError):
            db.execute("SELECT name, COUNT(*) FROM products GROUP BY "
                       "manufacturer")

    def test_having_without_group(self, db):
        with pytest.raises(PlanError):
            db.execute("SELECT name FROM products HAVING COUNT(*) > 1")

    def test_unknown_table(self, db):
        with pytest.raises(ExecutionError):
            db.execute("SELECT * FROM nothere")

    def test_unknown_column(self, db):
        # Rejected statically by the plan checker, before execution.
        with pytest.raises(PlanError):
            db.execute("SELECT bogus FROM products")

    def test_ambiguous_column(self, db):
        with pytest.raises(ExecutionError):
            db.execute(
                "SELECT pid FROM products p JOIN sales s ON p.pid = s.pid"
            )

    @pytest.mark.parametrize("message, sql", [
        ("unknown column 'count(*)'",
         "SELECT quarter FROM sales GROUP BY quarter HAVING COUNT(*) > 1"),
        ("ambiguous column 'pid' (candidates: p.pid, s.pid)",
         "SELECT pid FROM products p JOIN sales s ON p.pid = s.pid"),
        ("cannot compare 'Alpha Widget' (str) with 3 (int)",
         "SELECT pid FROM products WHERE name = 3"),
        ("cannot compare 19.99 (float) with 'x' (str)",
         "SELECT pid FROM products WHERE price = 'x'"),
        ("SUM over non-numeric values", "SELECT SUM(name) FROM products"),
    ], ids=["having-aggregate-not-selected", "ambiguous", "text-vs-int",
            "float-vs-text", "sum-of-text"])
    def test_execution_error_messages(self, db, message, sql):
        with pytest.raises(ExecutionError) as err:
            db.execute(sql)
        assert str(err.value) == message

    def test_unresolvable_reference_is_silent_on_empty_input(self, db):
        # A reference that cannot resolve fails on the first row it is
        # evaluated for, so an empty input never sees the error.
        db.execute("DELETE FROM sales")
        ambiguous = "SELECT pid FROM products p JOIN sales s ON p.pid = s.pid"
        assert db.execute(ambiguous).rows == []

    def test_star_over_empty_table_keeps_columns(self, db):
        db.execute("CREATE TABLE extras (pid INT, note TEXT)")
        rs = db.execute("SELECT * FROM extras")
        assert (rs.columns, rs.rows) == (["pid", "note"], [])

    @pytest.mark.parametrize("having, quarters", [
        ("COUNT(*) >= 2", ["Q1", "Q2"]),
        ("2 < COUNT(*)", ["Q2"]),
        ("(COUNT(*) >= 2) AND SUM(amount) = 300", ["Q1"]),
        ("SUM(amount) > 301 AND (n = 3)", ["Q2"]),
        ("SUM(amount) < -1", []),
    ], ids=["comparison", "flipped", "and", "alias", "negative"])
    def test_having_aggregate_in_a_conjunction(self, db, having, quarters):
        rs = db.execute(
            "SELECT quarter, COUNT(*) AS n, SUM(amount) FROM sales "
            "GROUP BY quarter HAVING %s" % having
        )
        assert rs.column("quarter") == quarters

    def test_aggregate_outside_select_list_is_typed_error(self, db):
        # HAVING / ORDER BY read aggregates the select list computed;
        # one that is not there is an unknown column, not a crash.
        grouped = "SELECT quarter, COUNT(*) AS n FROM sales GROUP BY quarter "
        for tail in ("HAVING MAX(amount) > 1", "ORDER BY COUNT(*)"):
            with pytest.raises(ExecutionError, match="unknown column"):
                db.execute(grouped + tail)
        rs = db.execute("SELECT quarter, COUNT(*) FROM sales "
                        "GROUP BY quarter ORDER BY COUNT(*) DESC")
        assert rs.rows == [("Q2", 3), ("Q1", 2)]

    def test_duplicate_table_name_in_from_rejected(self, db):
        for sql in (
            "SELECT sales.sid FROM sales JOIN sales ON sales.sid = sales.sid",
            "SELECT x.pid FROM products x JOIN sales x ON x.pid = x.pid",
        ):
            with pytest.raises(PlanError, match="duplicate table name"):
                db.execute(sql)
        rs = db.execute(
            "SELECT a.sid, b.sid FROM sales a JOIN sales b "
            "ON a.pid = b.pid WHERE a.sid < b.sid"
        )
        assert sorted(rs.rows) == [(1, 2), (3, 4)]

    def test_pretty_output(self, db):
        text = db.execute("SELECT name FROM products ORDER BY pid").pretty()
        assert "Alpha Widget" in text and "|" not in text.split("\n")[1]


class TestPlanner:
    def test_index_scan_chosen_for_pk(self, db):
        plan = db.explain("SELECT name FROM products WHERE pid = 2")
        assert "IndexScan" in plan

    def test_no_index_scan_without_index(self, db):
        plan = db.explain("SELECT name FROM products WHERE price = 9.99")
        assert "IndexScan" not in plan and "Filter" in plan

    def test_hash_join_for_equi(self, db):
        plan = db.explain(
            "SELECT * FROM products p JOIN sales s ON p.pid = s.pid"
        )
        assert "HashJoin" in plan

    def test_nested_loop_for_inequality(self, db):
        plan = db.explain(
            "SELECT * FROM products p JOIN sales s ON p.price < s.amount"
        )
        assert "NestedLoopJoin" in plan

    def test_residual_filter_after_index(self, db):
        plan = db.explain(
            "SELECT name FROM products WHERE pid = 1 AND price > 5"
        )
        assert "IndexScan" in plan and "Filter" in plan

    def test_plan_rejects_non_select(self, db):
        with pytest.raises(PlanError):
            db.plan("CREATE TABLE x (a INT)")


class TestDatabaseCatalog:
    def test_duplicate_table(self, db):
        with pytest.raises(StorageError):
            db.execute("CREATE TABLE products (x INT)")

    def test_drop_table(self, db):
        db.drop_table("sales")
        assert not db.has_table("sales")
        with pytest.raises(StorageError):
            db.drop_table("sales")

    def test_table_names(self, db):
        assert db.table_names() == ["products", "sales"]

    def test_load_dicts(self, db):
        n = db.load_dicts("products",
                          [{"pid": 9, "name": "Iota", "price": "3.5"}])
        assert n == 1
        rs = db.execute("SELECT price FROM products WHERE pid = 9")
        assert rs.scalar() == 3.5

    def test_insert_column_subset(self, db):
        db.execute("INSERT INTO products (pid, name) VALUES (7, 'Eta')")
        rs = db.execute("SELECT manufacturer FROM products WHERE pid = 7")
        assert rs.scalar() is None

    def test_insert_arity_mismatch(self, db):
        with pytest.raises(SchemaError):
            db.execute("INSERT INTO products (pid, name) VALUES (8)")
