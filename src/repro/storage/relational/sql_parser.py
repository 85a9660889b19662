"""Recursive-descent parser for the SQL subset.

Grammar (informal):

    statement   := select | create_table | insert
    select      := SELECT [DISTINCT] items FROM table_ref join*
                   [WHERE expr] [GROUP BY col_list] [HAVING expr]
                   [ORDER BY order_items] [LIMIT n [OFFSET m]]
    items       := '*' | item (',' item)*
    item        := expr [[AS] alias]
    join        := [INNER | LEFT [OUTER]] JOIN table_ref ON expr
    table_ref   := ident [[AS] alias]
    create      := CREATE TABLE ident '(' coldef (',' coldef)*
                   [',' PRIMARY KEY '(' ident ')'] ')'
    insert      := INSERT INTO ident ['(' col_list ')']
                   VALUES tuple (',' tuple)*

Aggregates (COUNT/SUM/AVG/MIN/MAX, COUNT(*), COUNT(DISTINCT c)) are
parsed into :class:`AggregateCall` select items.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from ...errors import SQLSyntaxError
from ..types import DataType
from .expressions import (
    Between, BinaryOp, Bound, ColumnRef, Expression, FunctionCall, InList,
    IsNull, Like, Literal, UnaryOp,
)
from .schema import Column, TableSchema
from .sql_lexer import EOF, IDENT, KW, NUMBER, OP, PUNCT, STRING, SQLToken, lex

AGGREGATES = ("count", "sum", "avg", "min", "max")

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
    """One JOIN: kind ('inner' or 'left'), target and ON condition."""

    kind: str
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
    offset: int = 0
    distinct: bool = False
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
    """Parsed UPDATE ... SET ... [WHERE]."""

    table: str
    assignments: List[Tuple[str, Expression]]
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


@dataclass
class CreateViewStatement:
    """Parsed CREATE VIEW name AS SELECT..."""

    name: str
    select: "SelectStatement"


@dataclass
class DropViewStatement:
    """Parsed DROP VIEW."""

    name: str


@dataclass
class TransactionStatement:
    """Parsed BEGIN / COMMIT / ROLLBACK."""

    action: str  # 'begin' | 'commit' | 'rollback'


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
            "expected %s, found %r" % (word.upper(), tok.text or "<eof>"),
            tok.position,
        )

    def _accept_punct(self, ch: str) -> bool:
        tok = self._peek()
        if tok.kind == PUNCT and tok.text == ch:
            self._advance()
            return True
        return False

    def _expect_punct(self, ch: str) -> None:
        tok = self._peek()
        if not self._accept_punct(ch):
            raise SQLSyntaxError(
                "expected %r, found %r" % (ch, tok.text or "<eof>"),
                tok.position,
            )

    def _expect_ident(self) -> str:
        tok = self._peek()
        if tok.kind == IDENT:
            self._advance()
            return tok.text.lower()
        raise SQLSyntaxError(
            "expected identifier, found %r" % (tok.text or "<eof>"),
            tok.position,
        )

    # Entry points ----------------------------------------------------
    def parse_statement(self):
        if self._check_kw("select"):
            stmt = self.parse_select()
        elif self._check_kw("create"):
            stmt = self.parse_create()
        elif self._check_kw("insert"):
            stmt = self.parse_insert()
        elif self._check_kw("update"):
            stmt = self.parse_update()
        elif self._check_kw("delete"):
            stmt = self.parse_delete()
        elif self._check_kw("drop"):
            stmt = self.parse_drop()
        elif self._check_kw("begin", "commit", "rollback"):
            action = self._advance().text.lower()
            if action == "begin":
                self._accept_kw("transaction")
            stmt = TransactionStatement(action)
        else:
            tok = self._peek()
            raise SQLSyntaxError(
                "expected SELECT/CREATE/INSERT/UPDATE/DELETE/DROP, "
                "found %r" % (tok.text or "<eof>"), tok.position,
            )
        self._accept_punct(";")
        tok = self._peek()
        if tok.kind != EOF:
            raise SQLSyntaxError(
                "trailing input after statement: %r" % tok.text, tok.position
            )
        return stmt

    # SELECT ----------------------------------------------------------
    def parse_select(self) -> SelectStatement:
        self._expect_kw("select")
        distinct = self._accept_kw("distinct")
        star = False
        items: List[SelectItem] = []
        if self._peek().kind == OP and self._peek().text == "*":
            self._advance()
            star = True
        else:
            items.append(self._select_item())
            while self._accept_punct(","):
                items.append(self._select_item())
        self._expect_kw("from")
        table = self._table_ref()
        joins: List[JoinClause] = []
        while self._check_kw("join", "inner", "left", "right", "outer"):
            joins.append(self._join_clause())
        where = None
        if self._accept_kw("where"):
            where = self._expression()
        group_by: List[ColumnRef] = []
        if self._accept_kw("group"):
            self._expect_kw("by")
            group_by.append(self._column_ref())
            while self._accept_punct(","):
                group_by.append(self._column_ref())
        having = None
        if self._accept_kw("having"):
            having = self._expression(allow_aggregates=True)
        order_by: List[OrderItem] = []
        if self._accept_kw("order"):
            self._expect_kw("by")
            order_by.append(self._order_item())
            while self._accept_punct(","):
                order_by.append(self._order_item())
        limit = None
        offset = 0
        if self._accept_kw("limit"):
            limit = self._int_literal()
            if self._accept_kw("offset"):
                offset = self._int_literal()
        return SelectStatement(
            items=items, table=table, joins=joins, where=where,
            group_by=group_by, having=having, order_by=order_by,
            limit=limit, offset=offset, distinct=distinct, star=star,
        )

    def _select_item(self) -> SelectItem:
        expr = self._expression(allow_aggregates=True)
        alias = None
        if self._accept_kw("as"):
            alias = self._expect_ident()
        elif self._peek().kind == IDENT:
            alias = self._expect_ident()
        return SelectItem(expr, alias)

    def _table_ref(self) -> TableRef:
        name = self._expect_ident()
        alias = None
        if self._accept_kw("as"):
            alias = self._expect_ident()
        elif self._peek().kind == IDENT:
            alias = self._expect_ident()
        return TableRef(name, alias)

    def _join_clause(self) -> JoinClause:
        kind = "inner"
        if self._accept_kw("left"):
            self._accept_kw("outer")
            kind = "left"
        elif self._check_kw("right"):
            tok = self._peek()  # point at RIGHT itself, not what follows
            raise SQLSyntaxError("RIGHT JOIN is not supported", tok.position)
        elif self._accept_kw("inner"):
            kind = "inner"
        self._expect_kw("join")
        table = self._table_ref()
        self._expect_kw("on")
        condition = self._expression()
        return JoinClause(kind, table, condition)

    def _order_item(self) -> OrderItem:
        expr = self._expression(allow_aggregates=True)
        descending = False
        if self._accept_kw("desc"):
            descending = True
        else:
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
        if self._accept_punct("."):
            col = self._expect_ident()
            return ColumnRef(col, table=name)
        return ColumnRef(name)

    # CREATE / INSERT ---------------------------------------------------
    def parse_create(self):
        self._expect_kw("create")
        if self._accept_kw("view"):
            name = self._expect_ident()
            self._expect_kw("as")
            return CreateViewStatement(name, self.parse_select())
        self._expect_kw("table")
        name = self._expect_ident()
        self._expect_punct("(")
        columns: List[Column] = []
        primary_key: Optional[str] = None
        while True:
            if self._check_kw("primary"):
                self._advance()
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
            if not self._accept_punct(","):
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
        if self._accept_punct("("):
            columns = [self._expect_ident()]
            while self._accept_punct(","):
                columns.append(self._expect_ident())
            self._expect_punct(")")
        self._expect_kw("values")
        rows: List[Tuple[Any, ...]] = [self._value_tuple()]
        while self._accept_punct(","):
            rows.append(self._value_tuple())
        return InsertStatement(table, columns, rows)

    def parse_update(self) -> UpdateStatement:
        self._expect_kw("update")
        table = self._expect_ident()
        self._expect_kw("set")
        assignments: List[Tuple[str, Expression]] = []
        while True:
            column = self._expect_ident()
            tok = self._peek()
            if not (tok.kind == OP and tok.text == "="):
                raise SQLSyntaxError("expected '=' in SET", tok.position)
            self._advance()
            assignments.append((column, self._expression()))
            if not self._accept_punct(","):
                break
        where = None
        if self._accept_kw("where"):
            where = self._expression()
        return UpdateStatement(table, assignments, where)

    def parse_delete(self) -> DeleteStatement:
        self._expect_kw("delete")
        self._expect_kw("from")
        table = self._expect_ident()
        where = None
        if self._accept_kw("where"):
            where = self._expression()
        return DeleteStatement(table, where)

    def parse_drop(self):
        self._expect_kw("drop")
        if self._accept_kw("view"):
            return DropViewStatement(self._expect_ident())
        self._expect_kw("table")
        return DropTableStatement(self._expect_ident())

    def _value_tuple(self) -> Tuple[Any, ...]:
        self._expect_punct("(")
        values = [self._literal_value()]
        while self._accept_punct(","):
            values.append(self._literal_value())
        self._expect_punct(")")
        return tuple(values)

    def _literal_value(self) -> Any:
        tok = self._peek()
        if tok.kind == NUMBER:
            self._advance()
            return float(tok.text) if "." in tok.text else int(tok.text)
        if tok.kind == STRING:
            self._advance()
            return _maybe_date(tok.text)
        if self._accept_kw("null"):
            return None
        if self._accept_kw("true"):
            return True
        if self._accept_kw("false"):
            return False
        if tok.kind == OP and tok.text == "-":
            self._advance()
            inner = self._literal_value()
            return -inner
        raise SQLSyntaxError("expected literal, found %r" % tok.text,
                             tok.position)

    # Expressions (precedence climbing) -------------------------------
    def _expression(self, allow_aggregates: bool = False) -> Expression:
        return self._or_expr(allow_aggregates)

    def _or_expr(self, agg: bool) -> Expression:
        left = self._and_expr(agg)
        while self._accept_kw("or"):
            left = BinaryOp("OR", left, self._and_expr(agg))
        return left

    def _and_expr(self, agg: bool) -> Expression:
        left = self._not_expr(agg)
        while self._accept_kw("and"):
            left = BinaryOp("AND", left, self._not_expr(agg))
        return left

    def _not_expr(self, agg: bool) -> Expression:
        if self._accept_kw("not"):
            return UnaryOp("NOT", self._not_expr(agg))
        return self._comparison(agg)

    def _comparison(self, agg: bool) -> Expression:
        left = self._additive(agg)
        tok = self._peek()
        if tok.kind == OP and tok.text in ("=", "!=", "<>", "<", "<=", ">", ">="):
            self._advance()
            right = self._additive(agg)
            return BinaryOp(tok.text, left, right)
        if self._check_kw("is"):
            self._advance()
            negated = self._accept_kw("not")
            self._expect_kw("null")
            return IsNull(left, negated=negated)
        negated = False
        if self._check_kw("not"):
            # lookahead for NOT IN / NOT LIKE / NOT BETWEEN
            save = self._pos
            self._advance()
            if self._check_kw("in", "like", "between"):
                negated = True
            else:
                self._pos = save
                return left
        if self._accept_kw("in"):
            self._expect_punct("(")
            options = [self._additive(agg)]
            while self._accept_punct(","):
                options.append(self._additive(agg))
            self._expect_punct(")")
            return InList(left, tuple(options), negated=negated)
        if self._accept_kw("like"):
            tok = self._peek()
            if tok.kind != STRING:
                raise SQLSyntaxError("LIKE needs a string pattern",
                                     tok.position)
            self._advance()
            return Like(left, tok.text, negated=negated)
        if self._accept_kw("between"):
            low = self._additive(agg)
            self._expect_kw("and")
            high = self._additive(agg)
            expr: Expression = Between(left, low, high)
            if negated:
                expr = UnaryOp("NOT", expr)
            return expr
        return left

    def _additive(self, agg: bool) -> Expression:
        left = self._multiplicative(agg)
        while True:
            tok = self._peek()
            if tok.kind == OP and tok.text in ("+", "-"):
                self._advance()
                left = BinaryOp(tok.text, left, self._multiplicative(agg))
            else:
                return left

    def _multiplicative(self, agg: bool) -> Expression:
        left = self._unary(agg)
        while True:
            tok = self._peek()
            if tok.kind == OP and tok.text in ("*", "/", "%"):
                self._advance()
                left = BinaryOp(tok.text, left, self._unary(agg))
            else:
                return left

    def _unary(self, agg: bool) -> Expression:
        tok = self._peek()
        if tok.kind == OP and tok.text == "-":
            self._advance()
            return UnaryOp("-", self._unary(agg))
        return self._primary(agg)

    def _primary(self, agg: bool) -> Expression:
        tok = self._peek()
        if tok.kind == NUMBER:
            self._advance()
            value = float(tok.text) if "." in tok.text else int(tok.text)
            return Literal(value)
        if tok.kind == STRING:
            self._advance()
            return literal(tok.text)
        if self._accept_kw("null"):
            return Literal(None)
        if self._accept_kw("true"):
            return Literal(True)
        if self._accept_kw("false"):
            return Literal(False)
        if tok.kind == PUNCT and tok.text == "(":
            self._advance()
            inner = self._expression(agg)
            self._expect_punct(")")
            return inner
        if tok.kind == KW and tok.text.lower() in AGGREGATES:
            if not agg:
                raise SQLSyntaxError(
                    "aggregate %r not allowed here" % tok.text, tok.position
                )
            return self._aggregate_call()
        if tok.kind == IDENT:
            name = self._expect_ident()
            if self._peek().kind == PUNCT and self._peek().text == "(":
                self._advance()
                args: List[Expression] = []
                if not (self._peek().kind == PUNCT
                        and self._peek().text == ")"):
                    args.append(self._expression(agg))
                    while self._accept_punct(","):
                        args.append(self._expression(agg))
                self._expect_punct(")")
                return FunctionCall(name, tuple(args))
            if self._accept_punct("."):
                col = self._expect_ident()
                return ColumnRef(col, table=name)
            return ColumnRef(name)
        raise SQLSyntaxError(
            "unexpected token %r in expression" % (tok.text or "<eof>"),
            tok.position,
        )

    def _aggregate_call(self) -> "AggregateCall":
        func = self._advance().text.lower()
        self._expect_punct("(")
        if self._peek().kind == OP and self._peek().text == "*":
            self._advance()
            self._expect_punct(")")
            return AggregateCall(func, None)
        distinct = self._accept_kw("distinct")
        arg = self._expression()
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

    For callers that build statements without text: the grammar has no
    negative literals (``-5`` is unary minus applied to ``5``) and reads
    an ISO-date-looking string as a date.
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


def _render_select(stmt: SelectStatement) -> str:
    parts = ["SELECT"]
    if stmt.distinct:
        parts.append("DISTINCT")
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
        keyword = "LEFT JOIN" if join.kind == "left" else "JOIN"
        parts.append("%s %s ON %s" % (
            keyword, _render_table_ref(join.table), join.condition.sql()
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
        if stmt.offset:
            parts.append("OFFSET %d" % stmt.offset)
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
    ``parse(render_statement(...))``'s input AST (pinned by the
    round-trip fuzz tests).

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
        text = "UPDATE %s SET %s" % (stmt.table, ", ".join(
            "%s = %s" % (column, expr.sql())
            for column, expr in stmt.assignments
        ))
        if stmt.where is not None:
            text += " WHERE %s" % stmt.where.sql()
        return text
    if isinstance(stmt, DeleteStatement):
        text = "DELETE FROM %s" % stmt.table
        if stmt.where is not None:
            text += " WHERE %s" % stmt.where.sql()
        return text
    if isinstance(stmt, DropTableStatement):
        return "DROP TABLE %s" % stmt.table
    if isinstance(stmt, CreateViewStatement):
        return "CREATE VIEW %s AS %s" % (
            stmt.name, _render_select(stmt.select)
        )
    if isinstance(stmt, DropViewStatement):
        return "DROP VIEW %s" % stmt.name
    if isinstance(stmt, TransactionStatement):
        return stmt.action.upper()
    raise SQLSyntaxError(
        "cannot render statement type %r" % type(stmt).__name__
    )
