"""Compile a :class:`QuerySpec` to the engine's statement AST and run it.

The spec lowers straight to the :class:`SelectStatement` the SQL parser
would produce for its text, so executing a spec never renders or parses
SQL; :meth:`QueryCompiler.to_sql` is that statement rendered, for
display. When a spec involves joins, bare column names are qualified
with the table that owns them (first owner wins, base table preferred),
so the statement never trips the executor's ambiguity check.
"""

from __future__ import annotations

import datetime as _dt
from typing import Any, List, Optional

from ..errors import SynthesisError
from ..storage.relational.database import Database
from ..storage.relational.executor import ResultSet
from ..storage.relational.expressions import (
    BinaryOp, ColumnRef, Expression, FunctionCall, Like, conjunction,
)
from ..storage.relational.sql_parser import (
    AggregateCall, JoinClause, OrderItem, SelectItem, SelectStatement,
    TableRef, literal, render_statement,
)
from .logical import AggregateSpec, FilterSpec, QuerySpec


def _alias(agg: AggregateSpec) -> str:
    return "%s_%s" % (agg.func, "all" if agg.column == "*" else agg.column)


def _ref(column: str, table: Optional[str] = None) -> ColumnRef:
    # The parser lowers every identifier it reads from SQL text, and the
    # catalog is lower-case throughout; so does the lowering.
    return ColumnRef(column.lower(), table.lower() if table else None)


class QueryCompiler:
    """Lower and run query specs against one database."""

    def __init__(self, db: Database):
        self._db = db

    # ------------------------------------------------------------------
    def _owner(self, column: str, tables: List[str], missing: str) -> str:
        for table in tables:
            if self._db.table(table).schema.has_column(column):
                return table
        raise SynthesisError(missing % (column, tables))

    def _column(self, spec: QuerySpec, column: str) -> ColumnRef:
        if not spec.joins:
            return _ref(column)
        tables = [spec.table] + [j.table for j in spec.joins]
        return _ref(column, self._owner(
            column, tables, "column %r not found in %s"
        ))

    @staticmethod
    def _literal(value: Any) -> Expression:
        if value is None or isinstance(value, (bool, int, float, _dt.date)):
            return literal(value)
        return literal(str(value))

    def _filter(self, spec: QuerySpec, flt: FilterSpec) -> Expression:
        column = self._column(spec, flt.column)
        if flt.op == "like":
            return Like(column, str(flt.value))
        if isinstance(flt.value, str):
            # Case-insensitive comparison for text equality filters:
            # entity mentions were lowered during value indexing.
            return BinaryOp(
                flt.op, FunctionCall("lower", (column,)),
                literal(flt.value.lower()),
            )
        return BinaryOp(flt.op, column, self._literal(flt.value))

    def _aggregate(self, spec: QuerySpec,
                   agg: AggregateSpec) -> AggregateCall:
        arg = None if agg.column == "*" else self._column(spec, agg.column)
        return AggregateCall(agg.func, arg, distinct=agg.distinct)

    # ------------------------------------------------------------------
    def to_statement(self, spec: QuerySpec) -> SelectStatement:
        """Lower *spec* to the statement ``parse(self.to_sql(spec))``
        would build, without going through text."""
        items = [
            SelectItem(self._column(spec, column))
            for column in spec.projection
        ] + [
            SelectItem(self._aggregate(spec, agg), _alias(agg).lower())
            for agg in spec.aggregates
        ]
        joins: List[JoinClause] = []
        tables = [spec.table]
        for join in spec.joins:
            left = self._owner(join.left_column, tables,
                               "join column %r not found among %s")
            joins.append(JoinClause(
                "inner", TableRef(join.table.lower()), BinaryOp(
                    "=", _ref(join.left_column, left),
                    _ref(join.right_column, join.table),
                ),
            ))
            tables.append(join.table)
        where = conjunction(
            [self._filter(spec, flt) for flt in spec.filters]
        )
        group_by = [self._column(spec, column) for column in spec.group_by]
        having = conjunction([
            BinaryOp(op, self._aggregate(spec, agg), self._literal(value))
            for agg, op, value in spec.having
        ])
        order_by: List[OrderItem] = []
        if spec.order_by:
            if spec.order_by in {_alias(agg) for agg in spec.aggregates}:
                # Ordering by an aggregate's output alias, not a base
                # column — never qualify.
                term = _ref(spec.order_by)
            else:
                term = self._column(spec, spec.order_by)
            order_by.append(OrderItem(term, spec.descending))
        return SelectStatement(
            items=items, table=TableRef(spec.table.lower()), joins=joins,
            where=where, group_by=group_by, having=having,
            order_by=order_by, limit=spec.limit, star=not items,
        )

    def to_sql(self, spec: QuerySpec) -> str:
        """Render *spec* as SQL text (the lowered statement, rendered)."""
        return render_statement(self.to_statement(spec))

    def execute(self, spec: QuerySpec) -> ResultSet:
        """Lower and run *spec*."""
        return self._db.execute(self.to_statement(spec))
