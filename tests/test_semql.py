"""Tests for intent analysis, catalog binding, synthesis, compilation
and semantic operators."""

import datetime as dt

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import LakeSpec, generate_ecommerce_lake
from repro.bench.runner import build_hybrid_system, generate_lake
from repro.errors import SynthesisError
from repro.metering import ROWS_SCANNED, CostMeter
from repro.semql import (
    AggregateSpec, FilterSpec, JoinSpec, OperatorSynthesizer, QueryCompiler,
    QuerySpec, SchemaCatalog, SemanticOperators, analyze,
)
from repro.semql.logical import AGG_FUNCS, FILTER_OPS
from repro.slm import SLMConfig, SmallLanguageModel
from repro.storage.relational import (
    AggregateCall, Database, Expression, Literal, UnaryOp, sql_parser,
)
from repro.storage.relational.executor import ResultSet
from repro.storage.relational.sql_parser import parse


def _make_db():
    database = Database(meter=CostMeter())
    database.execute(
        "CREATE TABLE products (pid INT PRIMARY KEY, name TEXT, "
        "manufacturer TEXT, price FLOAT)"
    )
    database.execute(
        "CREATE TABLE sales (sid INT PRIMARY KEY, pid INT, quarter TEXT, "
        "amount FLOAT, change_percent FLOAT)"
    )
    database.execute(
        "INSERT INTO products VALUES "
        "(1, 'Alpha Widget', 'Acme', 19.99), "
        "(2, 'Beta Gadget', 'Globex', 29.99), "
        "(3, 'Gamma Gizmo', 'Acme', 9.99)"
    )
    database.execute(
        "INSERT INTO sales VALUES "
        "(1, 1, 'q1', 100.0, 5.0), "
        "(2, 1, 'q2', 120.0, 20.0), "
        "(3, 2, 'q1', 200.0, -3.0), "
        "(4, 2, 'q2', 180.0, -10.0), "
        "(5, 3, 'q2', 50.0, 18.0)"
    )
    return database


@pytest.fixture
def db():
    return _make_db()


@pytest.fixture
def catalog(db):
    cat = SchemaCatalog(db)
    cat.register_join("sales", "pid", "products", "pid")
    cat.register_synonym("sales", "sales", "amount")
    cat.register_synonym("revenue", "sales", "amount")
    cat.register_synonym("increase", "sales", "change_percent")
    cat.register_display_column("products", "name")
    cat.build_value_index()
    return cat


@pytest.fixture
def synthesizer(catalog):
    return OperatorSynthesizer(catalog)


@pytest.fixture
def compiler(db):
    return QueryCompiler(db)


class TestIntentAnalysis:
    def test_sum_intent(self):
        frame = analyze("Find the total sales of all products in Q3")
        assert frame.aggregate == "sum"
        assert frame.quarter == "Q3"
        assert "sales" in frame.metric_terms

    def test_avg_intent(self):
        assert analyze("average rating of products").aggregate == "avg"

    def test_count_intent(self):
        assert analyze("How many orders were placed?").aggregate == "count"

    def test_comparison_parsed(self):
        frame = analyze("products with a sales increase of more than 15% "
                        "in the last quarter")
        assert len(frame.comparisons) == 1
        comp = frame.comparisons[0]
        assert comp.op == ">" and comp.value == 15.0 and comp.is_percent

    def test_less_than(self):
        frame = analyze("items priced below 20 dollars")
        assert frame.comparisons[0].op == "<"

    def test_group_by_detected(self):
        frame = analyze("total sales per manufacturer")
        assert frame.group_term == "manufacturer"

    def test_year_detected(self):
        assert analyze("sales in Q2 2024").year == 2024

    def test_top_k(self):
        assert analyze("top 3 products by sales").limit == 3

    def test_list_intent(self):
        assert analyze("List products from Acme").wants_list


class TestCatalog:
    def test_resolve_exact(self, catalog):
        assert catalog.resolve_column("price")[0].column == "price"

    def test_resolve_synonym(self, catalog):
        binding = catalog.resolve_column("revenue")[0]
        assert (binding.table, binding.column) == ("sales", "amount")

    def test_resolve_stem(self, catalog):
        binding = catalog.resolve_column("quarters")[0]
        assert binding.column == "quarter"

    def test_prefer_tables_bonus(self, catalog):
        bindings = catalog.resolve_column("pid", prefer_tables=["sales"])
        assert bindings[0].table == "sales"

    def test_column_stems_computed_once_bindings_as_pinned(self, db,
                                                          catalog):
        # Bindings captured before column-name stems were kept per name;
        # asked twice so the second pass reads the kept pairs.
        pinned = {
            "percent change": [("sales", "change_percent", 0.55)],
            "changes": [("sales", "change_percent", 0.3)],
            "quarters": [("sales", "quarter", 0.8500000000000001)],
            "manufacturers": [("products", "manufacturer", 0.8)],
            "increase": [("sales", "change_percent", 0.9500000000000001)],
        }
        for _ in range(2):
            for term, expected in pinned.items():
                got = catalog.resolve_column(term, prefer_tables=["sales"])
                assert [(b.table, b.column, b.score) for b in got] == expected
        # Schemas are still read live: a later table just resolves.
        db.execute("CREATE TABLE returns (rid INT PRIMARY KEY, "
                   "return_percent FLOAT)")
        assert [(b.table, b.column, b.score)
                for b in catalog.resolve_column("percent")] == [
            ("returns", "return_percent", 0.25),
            ("sales", "change_percent", 0.25),
        ]

    def test_value_hit(self, catalog):
        hits = catalog.find_values("How did the Alpha Widget perform?")
        assert hits and hits[0].value == "alpha widget"
        assert hits[0].table == "products" and hits[0].column == "name"

    def test_value_hit_word_boundary(self, catalog):
        assert not catalog.find_values("the acmeish products")

    def test_join_path_direct(self, catalog):
        path = catalog.join_path("sales", "products")
        assert path == [JoinSpec("products", "pid", "pid")]

    def test_join_path_missing(self, catalog):
        with pytest.raises(SynthesisError):
            catalog.join_path("sales", "nonexistent")

    def test_join_path_self(self, catalog):
        assert catalog.join_path("sales", "sales") == []

    def test_display_column(self, catalog):
        assert catalog.display_column("products") == "name"
        assert catalog.display_column("sales") == "quarter"


class TestSynthesis:
    def test_paper_example_total_sales(self, synthesizer):
        spec = synthesizer.synthesize(
            "Find the total sales of all products in Q3"
        )
        assert spec.table == "sales"
        assert spec.aggregates == (AggregateSpec("sum", "amount"),)
        assert FilterSpec("quarter", "=", "q3") in spec.filters

    def test_entity_filter_with_join(self, synthesizer):
        spec = synthesizer.synthesize(
            "What is the total sales of the Alpha Widget?"
        )
        assert spec.table == "sales"
        assert JoinSpec("products", "pid", "pid") in spec.joins
        assert FilterSpec("name", "=", "alpha widget") in spec.filters

    def test_group_by_join(self, synthesizer):
        spec = synthesizer.synthesize("Find the total sales per manufacturer")
        assert spec.group_by == ("manufacturer",)
        assert spec.joins  # manufacturer lives in products

    def test_percent_comparison(self, synthesizer):
        spec = synthesizer.synthesize(
            "Count sales with an increase of more than 15%"
        )
        assert FilterSpec("change_percent", ">", 15.0) in spec.filters

    def test_count_star(self, synthesizer):
        spec = synthesizer.synthesize("How many products are there?")
        assert spec.aggregates == (AggregateSpec("count", "*"),)

    def test_list_query(self, synthesizer):
        spec = synthesizer.synthesize("List products from Acme")
        assert spec.projection == ("name",)
        assert FilterSpec("manufacturer", "=", "acme") in spec.filters

    def test_unbindable_metric(self, synthesizer):
        with pytest.raises(SynthesisError):
            synthesizer.synthesize("What is the average zorblax?")


class TestCompiler:
    def run(self, synthesizer, compiler, question):
        return compiler.execute(synthesizer.synthesize(question))

    def test_total_sales_q2(self, synthesizer, compiler):
        rs = self.run(synthesizer, compiler,
                      "Find the total sales of all products in Q2")
        assert rs.scalar() == pytest.approx(350.0)

    def test_entity_join_total(self, synthesizer, compiler):
        rs = self.run(synthesizer, compiler,
                      "What is the total sales of the Alpha Widget?")
        assert rs.scalar() == pytest.approx(220.0)

    def test_group_by(self, synthesizer, compiler):
        rs = self.run(synthesizer, compiler,
                      "Find the total sales per manufacturer")
        totals = dict(zip(rs.column("manufacturer"), rs.column("sum_amount")))
        assert totals["Acme"] == pytest.approx(270.0)
        assert totals["Globex"] == pytest.approx(380.0)

    def test_comparison(self, synthesizer, compiler):
        rs = self.run(synthesizer, compiler,
                      "Count sales with an increase of more than 15%")
        assert rs.scalar() == 2

    def test_list_filter(self, synthesizer, compiler):
        rs = self.run(synthesizer, compiler, "List products from Acme")
        assert sorted(rs.column("name")) == ["Alpha Widget", "Gamma Gizmo"]

    def test_to_sql_text(self, synthesizer, compiler):
        spec = synthesizer.synthesize(
            "What is the total sales of the Alpha Widget?"
        )
        sql = compiler.to_sql(spec)
        assert sql.startswith("SELECT") and "JOIN products" in sql

    def test_spec_signature_match(self):
        a = QuerySpec(table="sales",
                      filters=(FilterSpec("quarter", "=", "q2"),
                               FilterSpec("amount", ">", 10)),
                      aggregates=(AggregateSpec("sum", "amount"),))
        b = QuerySpec(table="sales",
                      filters=(FilterSpec("amount", ">", 10.0),
                               FilterSpec("quarter", "=", "Q2")),
                      aggregates=(AggregateSpec("sum", "amount"),))
        assert a.matches(b)

    def test_spec_invalid(self):
        with pytest.raises(SynthesisError):
            QuerySpec(table="t")
        with pytest.raises(SynthesisError):
            AggregateSpec("sum", "*")
        with pytest.raises(SynthesisError):
            FilterSpec("c", "~~", 1)


_SALES = ("sid", "pid", "quarter", "amount", "change_percent")
_PRODUCTS = ("pid", "name", "manufacturer", "price")

# Values a filter can carry. The lexer has no exponent form, so floats
# are limited to those repr() writes without one.
_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-10 ** 6, 10 ** 6),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).filter(
        lambda x: "e" not in repr(x)),
    st.dates(), st.text(max_size=12),
    st.sampled_from(["Q2", "O'Brien", "2024-05-01", "2024-13-01"]),
)


@st.composite
def _specs(draw):
    """Any QuerySpec over the fixture's two tables."""
    joined = draw(st.booleans())
    column = st.sampled_from(_SALES + _PRODUCTS if joined else _SALES)
    aggregate = st.one_of(
        st.builds(AggregateSpec, st.just("count"), st.just("*")),
        st.builds(AggregateSpec, st.sampled_from(AGG_FUNCS), column),
        st.builds(AggregateSpec, st.just("count"), column, st.just(True)),
    )
    aggregates = tuple(draw(st.lists(aggregate, max_size=3)))
    aliases = ["%s_%s" % (a.func, "all" if a.column == "*" else a.column)
               for a in aggregates]
    return QuerySpec(
        table="sales",
        joins=(JoinSpec("products", "pid", "pid"),) if joined else (),
        filters=tuple(draw(st.lists(st.builds(
            FilterSpec, column, st.sampled_from(FILTER_OPS), _VALUES,
        ), max_size=4))),
        group_by=tuple(draw(st.lists(column, max_size=2)))
        if aggregates else (),
        aggregates=aggregates,
        having=tuple(draw(st.lists(st.tuples(
            aggregate, st.sampled_from(FILTER_OPS[:-1]),
            st.integers(-50, 50),
        ), max_size=2))) if aggregates else (),
        projection=tuple(draw(st.lists(
            column, min_size=0 if aggregates else 1, max_size=3))),
        order_by=draw(st.one_of(st.none(), column,
                                st.sampled_from(aliases or [None]))),
        descending=draw(st.booleans()),
        limit=draw(st.one_of(st.none(), st.integers(0, 50))),
    )


class TestLowering:
    """``to_statement`` is the one lowering: it builds what the parser
    reads from ``to_sql``, and executing a spec never goes through text."""

    def test_literals_lower_the_way_the_parser_reads_them(self, compiler):
        spec = QuerySpec(
            table="sales", aggregates=(AggregateSpec("count"),),
            filters=(
                FilterSpec("change_percent", ">", -5),
                FilterSpec("amount", "!=", -0.25),
                FilterSpec("amount", "<=", 120.5),
                FilterSpec("quarter", "=", "2024-05-01"),
                FilterSpec("quarter", "!=", "O'Brien Q2"),
                FilterSpec("quarter", "like", "q%'s"),
                FilterSpec("sid", "=", dt.date(2024, 5, 1)),
                FilterSpec("pid", "=", None),
                FilterSpec("pid", "=", True),
            ),
        )
        statement = compiler.to_statement(spec)
        assert parse(compiler.to_sql(spec)) == statement
        conjuncts = []
        node = statement.where
        while getattr(node, "op", None) == "AND":
            conjuncts.insert(0, node.right)
            node = node.left
        conjuncts.insert(0, node)
        assert conjuncts[0].right == UnaryOp("-", Literal(5))
        assert conjuncts[1].right == UnaryOp("-", Literal(0.25))
        assert conjuncts[2].right == Literal(120.5)
        # The grammar reads an ISO-date-looking string as a date.
        assert conjuncts[3].right == Literal(dt.date(2024, 5, 1))
        assert conjuncts[4].right == Literal("o'brien q2")
        assert conjuncts[5].pattern == "q%'s"
        assert conjuncts[6].right == Literal(dt.date(2024, 5, 1))

    def test_hypothesis_built_specs_lower_to_what_the_parser_reads(self):
        compiler = QueryCompiler(_make_db())

        @settings(max_examples=200, deadline=None)
        @given(spec=_specs())
        def check(spec):
            assert parse(compiler.to_sql(spec)) == \
                compiler.to_statement(spec)

        check()

    @pytest.mark.parametrize("seed", [7, 11])
    @pytest.mark.parametrize("domain", ["ecommerce", "healthcare"])
    def test_qa_suite_specs_lower_to_what_the_parser_reads(
            self, domain, seed, monkeypatch):
        lake = generate_lake(domain, seed)
        _system, pipe = build_hybrid_system(lake, seed=seed)
        execute, specs = QueryCompiler.execute, []

        def recorder(self, spec):
            specs.append(spec)
            return execute(self, spec)

        monkeypatch.setattr(QueryCompiler, "execute", recorder)
        for pair in lake.qa_pairs():
            pipe.answer(pair.question)
        compiler = QueryCompiler(pipe.db)
        assert len(specs) > 10
        for spec in specs:
            assert parse(compiler.to_sql(spec)) == \
                compiler.to_statement(spec)

    def test_structured_ask_lexes_nothing_and_binds_per_statement(
            self, monkeypatch):
        lake = generate_ecommerce_lake(LakeSpec(n_products=4, seed=17))
        _system, pipe = build_hybrid_system(lake, seed=13)
        question = next(pair.question for pair in lake.qa_pairs(per_kind=1)
                        if pair.kind == "structured_entity")
        lexed, bound = [], []
        lex = sql_parser.lex

        def lex_recorder(sql):
            lexed.append(sql)
            return lex(sql)

        def count_binds(cls):
            bind = cls.bind

            def bind_recorder(self, columns):
                bound.append(cls.__name__)
                return bind(self, columns)

            monkeypatch.setattr(cls, "bind", bind_recorder)

        monkeypatch.setattr(sql_parser, "lex", lex_recorder)
        for cls in Expression.__subclasses__() + [AggregateCall]:
            count_binds(cls)

        def ask():
            del bound[:]
            before = pipe.meter.get(ROWS_SCANNED)
            answer = pipe.answer(question)
            return (answer.value, len(bound),
                    pipe.meter.get(ROWS_SCANNED) - before)

        total, binds, scanned = ask()
        sales = pipe.db.table("sales").rows()
        # SUM(amount) FROM sales JOIN products WHERE name = … AND quarter = …
        assert scanned == len(sales) + len(pipe.db.table("products"))
        pipe.db.load_rows(
            "sales", [(row[0] + 10 ** 6,) + row[1:] for row in sales]
        )
        # Twice the rows: twice the sum and the scan, the same binding.
        assert ask() == (pytest.approx(2 * total), binds,
                         scanned + len(sales))
        assert binds > 0
        assert lexed == []


class TestSemanticOperators:
    def make_ops(self):
        slm = SmallLanguageModel(SLMConfig(seed=0), meter=CostMeter())
        return SemanticOperators(slm)

    def reviews(self):
        return ResultSet(
            ["product", "review"],
            [
                ("Alpha", "battery life is terrible and drains fast"),
                ("Alpha", "great battery that lasts for days"),
                ("Beta", "the screen cracked within a week"),
                ("Beta", "shipping was slow but support helped"),
            ],
        )

    def test_sem_filter(self):
        ops = self.make_ops()
        out = ops.sem_filter(self.reviews(),
                             "battery life problems drains",
                             columns=["review"], threshold=0.3)
        assert len(out) >= 1
        assert all("battery" in row[1] for row in out.rows)

    def test_sem_topk(self):
        ops = self.make_ops()
        out = ops.sem_topk(self.reviews(), "broken cracked screen", k=1,
                           columns=["review"])
        assert out.rows[0][1].startswith("the screen cracked")

    def test_sem_classify(self):
        ops = self.make_ops()
        out = ops.sem_classify(
            self.reviews(), ["battery", "screen damage", "shipping"],
            columns=["review"],
        )
        labels = out.column("label")
        assert labels[2] == "screen damage"

    def test_sem_classify_no_labels(self):
        with pytest.raises(SynthesisError):
            self.make_ops().sem_classify(self.reviews(), [])

    def test_sem_topk_bad_k(self):
        with pytest.raises(SynthesisError):
            self.make_ops().sem_topk(self.reviews(), "x", k=0)
