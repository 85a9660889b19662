"""Recursive-descent parser for the engine's SQL dialect.

The dialect is what the system itself writes: the SELECTs Semantic
Operator Synthesis lowers (:meth:`~repro.semql.compiler.QueryCompiler.
to_statement`), the lakes' curated CREATE TABLE / INSERT scripts, and
the writes a served stack takes. Anything outside it raises
:class:`~repro.errors.SQLSyntaxError` at the first token that leaves
the grammar.

Grammar::

    statement  := (select | create | insert | update | delete | drop) [';']
    select     := SELECT ('*' | item (',' item)*) FROM table_ref join*
                  [WHERE expr] [GROUP BY column (',' column)*]
                  [HAVING expr] [ORDER BY order (',' order)*]
                  [LIMIT integer]
    item       := expr [[AS] ident]
    join       := [INNER] JOIN table_ref ON expr
    table_ref  := ident [[AS] ident]
    order      := expr [ASC | DESC]
    expr       := comparison (AND comparison)*
    comparison := operand [cmp_op operand | LIKE string]
    cmp_op     := '=' | '!=' | '<>' | '<' | '<=' | '>' | '>='
    operand    := literal | column | LOWER '(' column ')' | aggregate
                | '(' expr ')'
    aggregate  := COUNT '(' '*' ')' | COUNT '(' DISTINCT column ')'
                | (COUNT | SUM | AVG | MIN | MAX) '(' column ')'
    column     := ident ['.' ident]
    literal    := ['-'] number | string | NULL | TRUE | FALSE
    create     := CREATE TABLE ident '(' coldef (',' coldef)* ')'
    coldef     := ident type [NOT NULL] [PRIMARY KEY]
                | PRIMARY KEY '(' ident ')'
    type       := INT | INTEGER | FLOAT | REAL | TEXT | VARCHAR
                | BOOL | BOOLEAN | DATE
    insert     := INSERT INTO ident ['(' ident (',' ident)* ')']
                  VALUES row (',' row)*
    row        := '(' literal (',' literal)* ')'
    update     := UPDATE ident SET assign (',' assign)* [WHERE expr]
    assign     := ident '=' literal
    delete     := DELETE FROM ident [WHERE expr]
    drop       := DROP TABLE ident

An aggregate is an operand only in the select list, HAVING and ORDER
BY. The sign of a literal binds only to the number right after it. A
string literal that reads as an ISO date is a date. Keywords are
case-insensitive, and identifiers are lower-cased.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ...errors import SQLSyntaxError
from ..types import DataType
from .expressions import (
    BinaryOp, Bound, ColumnRef, Expression, Like, Literal, Lower, UnaryOp,
)
from .schema import Column, TableSchema
from .sql_lexer import EOF, IDENT, KW, NUMBER, OP, PUNCT, STRING, SQLToken, lex

AGGREGATES = ("count", "sum", "avg", "min", "max")

_COMPARISON_OPS = ("=", "!=", "<>", "<", "<=", ">", ">=")

_LITERAL_WORDS = {"null": None, "true": True, "false": False}

_TYPE_WORDS = {
    "int": DataType.INT, "integer": DataType.INT,
    "float": DataType.FLOAT, "real": DataType.FLOAT,
    "text": DataType.TEXT, "varchar": DataType.TEXT,
    "bool": DataType.BOOL, "boolean": DataType.BOOL,
    "date": DataType.DATE,
}


@dataclass(frozen=True)
class AggregateCall:
    """An aggregate in the select list: func(arg) with options."""

    func: str
    arg: Optional[Expression]  # None means COUNT(*)
    distinct: bool = False

    def sql(self) -> str:
        """Render the aggregate back to SQL text."""
        inner = "*" if self.arg is None else self.arg.sql()
        if self.distinct:
            inner = "DISTINCT " + inner
        return "%s(%s)" % (self.func.upper(), inner)

    @property
    def key(self) -> str:
        """Canonical name: the output column of an unaliased aggregate
        and the slot its value takes in a grouped layout."""
        return self.sql().lower().replace(" ", "")

    def bind(self, columns: Sequence[str]) -> Bound:
        """Outside the select list (HAVING, ORDER BY) an aggregate is
        a reference to its already computed value, a column named
        :attr:`key` in the grouped layout."""
        return ColumnRef(self.key).bind(columns)


@dataclass(frozen=True)
class SelectItem:
    """One projected output: an expression or aggregate plus its alias."""

    expr: Any  # Expression or AggregateCall
    alias: Optional[str] = None

    @property
    def is_aggregate(self) -> bool:
        """True when this item is an :class:`AggregateCall`."""
        return isinstance(self.expr, AggregateCall)

    def output_name(self) -> str:
        """Column name this item produces in the result."""
        if self.alias:
            return self.alias
        if isinstance(self.expr, AggregateCall):
            return self.expr.key
        if isinstance(self.expr, ColumnRef):
            return self.expr.name
        return self.expr.sql().lower()


@dataclass(frozen=True)
class TableRef:
    """A FROM/JOIN table with optional alias."""

    name: str
    alias: Optional[str] = None

    @property
    def effective_name(self) -> str:
        """Alias when given, else the table name."""
        return self.alias or self.name


@dataclass(frozen=True)
class JoinClause:
    """One inner JOIN: target and ON condition."""

    table: TableRef
    condition: Expression


@dataclass(frozen=True)
class OrderItem:
    """ORDER BY element."""

    expr: Expression
    descending: bool = False


@dataclass
class SelectStatement:
    """Parsed SELECT."""

    items: List[SelectItem]
    table: TableRef
    joins: List[JoinClause] = field(default_factory=list)
    where: Optional[Expression] = None
    group_by: List[ColumnRef] = field(default_factory=list)
    having: Optional[Expression] = None
    order_by: List[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    star: bool = False

    @property
    def has_aggregates(self) -> bool:
        """True when any select item aggregates."""
        return any(item.is_aggregate for item in self.items)


@dataclass
class CreateTableStatement:
    """Parsed CREATE TABLE."""

    schema: TableSchema


@dataclass
class InsertStatement:
    """Parsed INSERT INTO ... VALUES."""

    table: str
    columns: Optional[List[str]]
    rows: List[Tuple[Any, ...]]


@dataclass
class UpdateStatement:
    """Parsed UPDATE ... SET column = literal, ... [WHERE]."""

    table: str
    assignments: List[Tuple[str, Any]]
    where: Optional[Expression]


@dataclass
class DeleteStatement:
    """Parsed DELETE FROM ... [WHERE]."""

    table: str
    where: Optional[Expression]


@dataclass
class DropTableStatement:
    """Parsed DROP TABLE."""

    table: str


def _found(tok: SQLToken) -> str:
    return repr(tok.text or "<eof>")


class _Parser:
    def __init__(self, tokens: Sequence[SQLToken]):
        self._tokens = tokens
        self._pos = 0

    # Cursor helpers --------------------------------------------------
    def _peek(self) -> SQLToken:
        return self._tokens[self._pos]

    def _advance(self) -> SQLToken:
        tok = self._tokens[self._pos]
        if tok.kind != EOF:
            self._pos += 1
        return tok

    def _check_kw(self, *words: str) -> bool:
        tok = self._peek()
        return tok.kind == KW and tok.text.lower() in words

    def _accept_kw(self, *words: str) -> bool:
        if self._check_kw(*words):
            self._advance()
            return True
        return False

    def _expect_kw(self, word: str) -> SQLToken:
        tok = self._peek()
        if tok.kind == KW and tok.text.lower() == word:
            return self._advance()
        raise SQLSyntaxError(
            "expected %s, found %s" % (word.upper(), _found(tok)),
            tok.position,
        )

    def _accept(self, kind: str, text: str) -> bool:
        tok = self._peek()
        if tok.kind == kind and tok.text == text:
            self._advance()
            return True
        return False

    def _expect_punct(self, ch: str) -> None:
        tok = self._peek()
        if not self._accept(PUNCT, ch):
            raise SQLSyntaxError(
                "expected %r, found %s" % (ch, _found(tok)), tok.position,
            )

    def _expect_ident(self) -> str:
        tok = self._peek()
        if tok.kind == IDENT:
            self._advance()
            return tok.text.lower()
        raise SQLSyntaxError(
            "expected identifier, found %s" % _found(tok), tok.position,
        )

    def _list(self, parse_one: Callable[[], Any]) -> List[Any]:
        """``parse_one (',' parse_one)*``."""
        items = [parse_one()]
        while self._accept(PUNCT, ","):
            items.append(parse_one())
        return items

    # Entry point -----------------------------------------------------
    def parse_statement(self):
        tok = self._peek()
        parse_one = {
            "select": self.parse_select, "create": self.parse_create,
            "insert": self.parse_insert, "update": self.parse_update,
            "delete": self.parse_delete, "drop": self.parse_drop,
        }.get(tok.text.lower()) if tok.kind == KW else None
        if parse_one is None:
            raise SQLSyntaxError(
                "expected SELECT/CREATE/INSERT/UPDATE/DELETE/DROP, "
                "found %s" % _found(tok), tok.position,
            )
        stmt = parse_one()
        self._accept(PUNCT, ";")
        tok = self._peek()
        if tok.kind != EOF:
            raise SQLSyntaxError(
                "trailing input after statement: %r" % tok.text, tok.position
            )
        return stmt

    # SELECT ----------------------------------------------------------
    def parse_select(self) -> SelectStatement:
        self._expect_kw("select")
        star = self._accept(OP, "*")
        items = [] if star else self._list(self._select_item)
        self._expect_kw("from")
        table = self._table_ref()
        joins: List[JoinClause] = []
        while self._check_kw("join", "inner"):
            self._accept_kw("inner")
            self._expect_kw("join")
            target = self._table_ref()
            self._expect_kw("on")
            joins.append(JoinClause(target, self._expression()))
        where = self._expression() if self._accept_kw("where") else None
        group_by: List[ColumnRef] = []
        if self._accept_kw("group"):
            self._expect_kw("by")
            group_by = self._list(self._column_ref)
        having = None
        if self._accept_kw("having"):
            having = self._expression(aggregates=True)
        order_by: List[OrderItem] = []
        if self._accept_kw("order"):
            self._expect_kw("by")
            order_by = self._list(self._order_item)
        limit = self._int_literal() if self._accept_kw("limit") else None
        return SelectStatement(
            items=items, table=table, joins=joins, where=where,
            group_by=group_by, having=having, order_by=order_by,
            limit=limit, star=star,
        )

    def _alias(self) -> Optional[str]:
        if self._accept_kw("as") or self._peek().kind == IDENT:
            return self._expect_ident()
        return None

    def _select_item(self) -> SelectItem:
        return SelectItem(self._expression(aggregates=True), self._alias())

    def _table_ref(self) -> TableRef:
        return TableRef(self._expect_ident(), self._alias())

    def _order_item(self) -> OrderItem:
        expr = self._expression(aggregates=True)
        descending = self._accept_kw("desc")
        if not descending:
            self._accept_kw("asc")
        return OrderItem(expr, descending)

    def _int_literal(self) -> int:
        tok = self._peek()
        if tok.kind == NUMBER and "." not in tok.text:
            self._advance()
            return int(tok.text)
        raise SQLSyntaxError("expected integer literal", tok.position)

    def _column_ref(self) -> ColumnRef:
        name = self._expect_ident()
        if self._accept(PUNCT, "."):
            return ColumnRef(self._expect_ident(), table=name)
        return ColumnRef(name)

    # CREATE / INSERT / UPDATE / DELETE / DROP ------------------------
    def parse_create(self) -> CreateTableStatement:
        self._expect_kw("create")
        self._expect_kw("table")
        name = self._expect_ident()
        self._expect_punct("(")
        columns: List[Column] = []
        primary_key: Optional[str] = None
        while True:
            if self._accept_kw("primary"):
                self._expect_kw("key")
                self._expect_punct("(")
                primary_key = self._expect_ident()
                self._expect_punct(")")
            else:
                col_name = self._expect_ident()
                tok = self._peek()
                if tok.kind != KW or tok.text.lower() not in _TYPE_WORDS:
                    raise SQLSyntaxError(
                        "expected column type, found %r" % tok.text,
                        tok.position,
                    )
                self._advance()
                dtype = _TYPE_WORDS[tok.text.lower()]
                nullable = True
                if self._accept_kw("not"):
                    self._expect_kw("null")
                    nullable = False
                if self._accept_kw("primary"):
                    self._expect_kw("key")
                    primary_key = col_name
                columns.append(Column(col_name, dtype, nullable))
            if not self._accept(PUNCT, ","):
                break
        self._expect_punct(")")
        return CreateTableStatement(
            TableSchema(name, columns, primary_key=primary_key)
        )

    def parse_insert(self) -> InsertStatement:
        self._expect_kw("insert")
        self._expect_kw("into")
        table = self._expect_ident()
        columns: Optional[List[str]] = None
        if self._accept(PUNCT, "("):
            columns = self._list(self._expect_ident)
            self._expect_punct(")")
        self._expect_kw("values")
        return InsertStatement(table, columns, self._list(self._value_tuple))

    def parse_update(self) -> UpdateStatement:
        self._expect_kw("update")
        table = self._expect_ident()
        self._expect_kw("set")
        assignments = self._list(self._assignment)
        where = self._expression() if self._accept_kw("where") else None
        return UpdateStatement(table, assignments, where)

    def _assignment(self) -> Tuple[str, Any]:
        column = self._expect_ident()
        tok = self._peek()
        if not self._accept(OP, "="):
            raise SQLSyntaxError("expected '=' in SET", tok.position)
        return column, self._literal_value()

    def parse_delete(self) -> DeleteStatement:
        self._expect_kw("delete")
        self._expect_kw("from")
        table = self._expect_ident()
        where = self._expression() if self._accept_kw("where") else None
        return DeleteStatement(table, where)

    def parse_drop(self) -> DropTableStatement:
        self._expect_kw("drop")
        self._expect_kw("table")
        return DropTableStatement(self._expect_ident())

    def _value_tuple(self) -> Tuple[Any, ...]:
        self._expect_punct("(")
        values = self._list(self._literal_value)
        self._expect_punct(")")
        return tuple(values)

    def _literal_value(self) -> Any:
        tok = self._advance()
        if tok.kind == NUMBER:
            return float(tok.text) if "." in tok.text else int(tok.text)
        if tok.kind == STRING:
            return _maybe_date(tok.text)
        if tok.kind == OP and tok.text == "-":
            if self._peek().kind != NUMBER:
                raise SQLSyntaxError("a sign must precede a number",
                                     tok.position)
            return -self._literal_value()
        if tok.kind == KW and tok.text.lower() in _LITERAL_WORDS:
            return _LITERAL_WORDS[tok.text.lower()]
        raise SQLSyntaxError("expected literal, found %s" % _found(tok),
                             tok.position)

    # Expressions -----------------------------------------------------
    def _expression(self, aggregates: bool = False) -> Expression:
        left = self._comparison(aggregates)
        while self._accept_kw("and"):
            left = BinaryOp("AND", left, self._comparison(aggregates))
        return left

    def _comparison(self, agg: bool) -> Expression:
        left = self._operand(agg)
        tok = self._peek()
        if tok.kind == OP and tok.text in _COMPARISON_OPS:
            self._advance()
            return BinaryOp(tok.text, left, self._operand(agg))
        if self._accept_kw("like"):
            tok = self._advance()
            if tok.kind != STRING:
                raise SQLSyntaxError("LIKE needs a string pattern",
                                     tok.position)
            return Like(left, tok.text)
        return left

    def _operand(self, agg: bool) -> Expression:
        tok = self._peek()
        if self._accept(PUNCT, "("):
            inner = self._expression(agg)
            self._expect_punct(")")
            return inner
        if tok.kind == KW and tok.text.lower() in AGGREGATES:
            if not agg:
                raise SQLSyntaxError(
                    "aggregate %r not allowed here" % tok.text, tok.position
                )
            return self._aggregate_call()
        if tok.kind != IDENT:
            return literal(self._literal_value())
        after = self._tokens[self._pos + 1]
        if not (after.kind == PUNCT and after.text == "("):
            return self._column_ref()
        if tok.text.lower() != "lower":
            raise SQLSyntaxError("unknown function %r" % tok.text,
                                 tok.position)
        self._advance()
        self._expect_punct("(")
        column = self._column_ref()
        self._expect_punct(")")
        return Lower(column)

    def _aggregate_call(self) -> AggregateCall:
        func = self._advance().text.lower()
        self._expect_punct("(")
        arg: Optional[ColumnRef] = None
        distinct = False
        if not (func == "count" and self._accept(OP, "*")):
            distinct = func == "count" and self._accept_kw("distinct")
            arg = self._column_ref()
        self._expect_punct(")")
        return AggregateCall(func, arg, distinct=distinct)


def _maybe_date(text: str) -> Any:
    """Parse ISO-date string literals into date objects, else keep str."""
    if len(text) == 10 and text[4] == "-" and text[7] == "-":
        try:
            return _dt.date.fromisoformat(text)
        except ValueError:
            return text
    return text


def literal(value: Any) -> Expression:
    """The expression :func:`parse` reads from *value*'s SQL rendering.

    For callers that build statements without text: a negative number
    reads as ``-`` applied to its magnitude, and an ISO-date-looking
    string as a date.
    """
    if isinstance(value, str):
        return Literal(_maybe_date(value))
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and str(value).startswith("-")):
        return UnaryOp("-", Literal(-value))
    return Literal(value)


def parse(sql: str):
    """Parse one SQL statement.

    >>> stmt = parse("SELECT a FROM t WHERE b > 2")
    >>> stmt.table.name
    't'
    """
    return _Parser(lex(sql)).parse_statement()


# ----------------------------------------------------------------------
# Rendering (the inverse of parse, up to whitespace/case normalization)
# ----------------------------------------------------------------------
def _render_value(value: Any) -> str:
    return Literal(value).sql()


def _render_table_ref(ref: TableRef) -> str:
    if ref.alias:
        return "%s AS %s" % (ref.name, ref.alias)
    return ref.name


def _render_where(where: Optional[Expression]) -> str:
    return "" if where is None else " WHERE %s" % where.sql()


def _render_select(stmt: SelectStatement) -> str:
    parts = ["SELECT"]
    if stmt.star:
        parts.append("*")
    else:
        rendered = []
        for item in stmt.items:
            text = item.expr.sql()
            if item.alias:
                text += " AS %s" % item.alias
            rendered.append(text)
        parts.append(", ".join(rendered))
    parts.append("FROM %s" % _render_table_ref(stmt.table))
    for join in stmt.joins:
        parts.append("JOIN %s ON %s" % (
            _render_table_ref(join.table), join.condition.sql()
        ))
    if stmt.where is not None:
        parts.append("WHERE %s" % stmt.where.sql())
    if stmt.group_by:
        parts.append("GROUP BY %s" % ", ".join(
            col.sql() for col in stmt.group_by
        ))
    if stmt.having is not None:
        parts.append("HAVING %s" % stmt.having.sql())
    if stmt.order_by:
        parts.append("ORDER BY %s" % ", ".join(
            item.expr.sql() + (" DESC" if item.descending else "")
            for item in stmt.order_by
        ))
    if stmt.limit is not None:
        parts.append("LIMIT %d" % stmt.limit)
    return " ".join(parts)


def _render_create_table(stmt: CreateTableStatement) -> str:
    schema = stmt.schema
    defs = []
    for column in schema.columns:
        text = "%s %s" % (column.name, column.dtype.value.upper())
        if not column.nullable:
            text += " NOT NULL"
        defs.append(text)
    if schema.primary_key is not None:
        defs.append("PRIMARY KEY (%s)" % schema.primary_key)
    return "CREATE TABLE %s (%s)" % (schema.name, ", ".join(defs))


def _render_insert(stmt: InsertStatement) -> str:
    text = "INSERT INTO %s" % stmt.table
    if stmt.columns is not None:
        text += " (%s)" % ", ".join(stmt.columns)
    text += " VALUES %s" % ", ".join(
        "(%s)" % ", ".join(_render_value(v) for v in row)
        for row in stmt.rows
    )
    return text


def render_statement(stmt: Any) -> str:
    """Render a parsed statement back to canonical SQL text.

    The renderer and parser form a fixed point: for any statement the
    parser accepts, ``parse(render_statement(parse(sql)))`` equals
    ``parse(sql)`` (pinned by the round-trip fuzz tests).

    >>> render_statement(parse("select a from t where b > 2"))
    'SELECT a FROM t WHERE (b > 2)'
    """
    if isinstance(stmt, SelectStatement):
        return _render_select(stmt)
    if isinstance(stmt, CreateTableStatement):
        return _render_create_table(stmt)
    if isinstance(stmt, InsertStatement):
        return _render_insert(stmt)
    if isinstance(stmt, UpdateStatement):
        return "UPDATE %s SET %s%s" % (stmt.table, ", ".join(
            "%s = %s" % (column, _render_value(value))
            for column, value in stmt.assignments
        ), _render_where(stmt.where))
    if isinstance(stmt, DeleteStatement):
        return "DELETE FROM %s%s" % (stmt.table, _render_where(stmt.where))
    if isinstance(stmt, DropTableStatement):
        return "DROP TABLE %s" % stmt.table
    raise SQLSyntaxError(
        "cannot render statement type %r" % type(stmt).__name__
    )
