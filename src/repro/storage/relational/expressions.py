"""Expression AST and evaluator for the SQL dialect of :mod:`.sql_parser`.

An expression is *bound* once per statement against a column layout —
the ordered column names (optionally qualified, "table.column") of the
row tuples it will see — which resolves every column reference to a
tuple position and returns a closure that is then called per row. NULL
semantics follow SQL pragmatically: NULL propagates through comparisons,
and a NULL predicate result (falsy) filters the row out.
"""

from __future__ import annotations

import datetime as _dt
import re
from dataclasses import dataclass
from operator import itemgetter
from typing import (
    Any, Callable, List, Optional, Sequence, Tuple,
)

from ...errors import ExecutionError, PlanError

#: A bound expression: row tuple (in the layout it was bound to) -> value.
Bound = Callable[[Tuple[Any, ...]], Any]


def _raises(error: type, message: str) -> Bound:
    """A bound expression that fails when first called, not when bound,
    so a statement over an empty input succeeds as it always did."""
    def fail(row: Tuple[Any, ...]) -> Any:
        raise error(message)
    return fail


class Expression:
    """Base class: all expressions implement ``bind`` and ``columns``."""

    def bind(self, columns: Sequence[str]) -> Bound:
        """Resolve column references against the layout *columns* and
        return the closure computing this expression from a row tuple.

        Binding never raises: an unresolvable reference or unknown
        operator binds to a closure raising the typed
        error on its first call.
        """
        raise NotImplementedError

    def columns(self) -> List[str]:
        """All column names referenced (for validation and planning)."""
        return []

    def sql(self) -> str:
        """Render back to SQL-ish text (used in EXPLAIN and tests)."""
        raise NotImplementedError


@dataclass(frozen=True)
class Literal(Expression):
    """A constant value."""

    value: Any

    def bind(self, columns: Sequence[str]) -> Bound:
        value = self.value
        return lambda row: value

    def sql(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, str):
            return "'%s'" % self.value.replace("'", "''")
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, _dt.date):
            return "'%s'" % self.value.isoformat()
        return str(self.value)


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A reference to a column, optionally table-qualified."""

    name: str
    table: Optional[str] = None

    @property
    def qualified(self) -> str:
        """The fully qualified name when a table is present."""
        if self.table:
            return "%s.%s" % (self.table, self.name)
        return self.name

    def position(self, columns: Sequence[str]) -> int:
        """This column's position in the layout *columns*; raises
        :class:`ExecutionError` when it is unknown or ambiguous."""
        # A name repeated in the layout resolves to its last occurrence.
        last = {name: pos for pos, name in enumerate(columns)}
        if self.table and self.qualified in last:
            return last[self.qualified]
        if self.name in last:
            return last[self.name]
        if self.table:
            raise ExecutionError("unknown column %r" % self.qualified)
        # An unqualified name falls back to a unique suffix match over
        # qualified names.
        suffix = "." + self.name
        hits = [name for name in last if name.endswith(suffix)]
        if len(hits) == 1:
            return last[hits[0]]
        if len(hits) > 1:
            raise ExecutionError(
                "ambiguous column %r (candidates: %s)"
                % (self.name, ", ".join(sorted(hits)))
            )
        raise ExecutionError("unknown column %r" % self.qualified)

    def bind(self, columns: Sequence[str]) -> Bound:
        try:
            return itemgetter(self.position(columns))
        except ExecutionError as exc:
            return _raises(ExecutionError, str(exc))

    def columns(self) -> List[str]:
        return [self.qualified]

    def sql(self) -> str:
        return self.qualified


def _cmp_values(a: Any, b: Any) -> Optional[int]:
    if a is None or b is None:
        return None
    if isinstance(a, bool) or isinstance(b, bool):
        if isinstance(a, bool) and isinstance(b, bool):
            return (a > b) - (a < b)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return (a > b) - (a < b)
    if isinstance(a, _dt.date) and isinstance(b, _dt.date):
        return (a > b) - (a < b)
    if isinstance(a, str) and isinstance(b, str):
        return (a > b) - (a < b)
    raise ExecutionError(
        "cannot compare %r (%s) with %r (%s)"
        % (a, type(a).__name__, b, type(b).__name__)
    )


_COMPARISONS = {
    "=": lambda c: c == 0,
    "!=": lambda c: c != 0,
    "<>": lambda c: c != 0,
    "<": lambda c: c < 0,
    "<=": lambda c: c <= 0,
    ">": lambda c: c > 0,
    ">=": lambda c: c >= 0,
}


@dataclass(frozen=True)
class BinaryOp(Expression):
    """A comparison, or the AND of two predicates."""

    op: str
    left: Expression
    right: Expression

    def bind(self, columns: Sequence[str]) -> Bound:
        op = self.op.upper() if self.op.isalpha() else self.op
        left, right = self.left.bind(columns), self.right.bind(columns)
        if op == "AND":
            def conjunction(row):
                lhs = left(row)
                if lhs is False:
                    return False
                rhs = right(row)
                if rhs is False:
                    return False
                if lhs is None or rhs is None:
                    return None
                return bool(lhs) and bool(rhs)
            return conjunction
        if (op == "=" and isinstance(self.right, Literal)
                and type(self.right.value) is str):
            # The entity-match shape (col / LOWER(col) = 'text'): two
            # strings compare directly; anything else goes through
            # _cmp_values for its NULL handling and type errors.
            text = self.right.value
            if isinstance(self.left, Lower):
                return _equals_lowered(self.left.column, text, columns)

            def equals_text(row):
                value = left(row)
                if type(value) is str:
                    return value == text
                cmp = _cmp_values(value, text)
                return None if cmp is None else cmp == 0
            return equals_text
        if op in _COMPARISONS:
            decide = _COMPARISONS[op]

            def comparison(row):
                cmp = _cmp_values(left(row), right(row))
                return None if cmp is None else decide(cmp)
            return comparison
        return _raises(PlanError, "unknown binary operator %r" % self.op)

    def columns(self) -> List[str]:
        return self.left.columns() + self.right.columns()

    def sql(self) -> str:
        return "(%s %s %s)" % (self.left.sql(), self.op, self.right.sql())


def _equals_lowered(column: ColumnRef, text: str,
                    columns: Sequence[str]) -> Bound:
    """``LOWER(column) = 'text'`` in one closure: what the generic
    :class:`Lower` and comparison pair computes — a cell's
    ``str`` form lowered and compared, NULL for a NULL cell."""
    try:
        pos = column.position(columns)
    except ExecutionError as exc:
        return _raises(ExecutionError, str(exc))

    def equals_lowered(row):
        value = row[pos]
        if type(value) is str:
            return value.lower() == text
        if value is None:
            return None
        return str(value).lower() == text
    return equals_lowered


def conjunction(terms: Sequence[Expression]) -> Optional[Expression]:
    """*terms* ANDed left to right, the way the parser nests a chain of
    ANDs; None when there are none."""
    expr: Optional[Expression] = None
    for term in terms:
        expr = term if expr is None else BinaryOp("AND", expr, term)
    return expr


def conjuncts(expr: Optional[Expression]) -> List[Expression]:
    """The terms of an AND chain, left to right — what
    :func:`conjunction` joins; empty for None."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op.upper() == "AND":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


#: Each comparison operator as it reads with its operands swapped.
_FLIPPED = {"=": "=", "!=": "!=", "<>": "<>", "<": ">", "<=": ">=",
            ">": "<", ">=": "<="}


def column_comparison(
    expr: Expression,
) -> Optional[Tuple[ColumnRef, str, Any]]:
    """``(column, op, value)`` for ``column <op> literal`` written
    either way round, the operator flipped so the column reads on the
    left; None for any other shape."""
    if not (isinstance(expr, BinaryOp) and expr.op in _FLIPPED):
        return None
    left, right = expr.left, expr.right
    if isinstance(right, Literal) and isinstance(left, ColumnRef):
        return left, expr.op, right.value
    if isinstance(left, Literal) and isinstance(right, ColumnRef):
        return right, _FLIPPED[expr.op], left.value
    return None


@dataclass(frozen=True)
class UnaryOp(Expression):
    """The sign of a negative numeric literal: ``-5`` reads as ``-``
    applied to ``5``."""

    op: str
    operand: Expression

    def bind(self, columns: Sequence[str]) -> Bound:
        operand = self.operand.bind(columns)
        if self.op == "-":
            def minus(row):
                value = operand(row)
                return None if value is None else -value
            return minus
        return _raises(PlanError, "unknown unary operator %r" % self.op)

    def columns(self) -> List[str]:
        return self.operand.columns()

    def sql(self) -> str:
        return "(%s %s)" % (self.op, self.operand.sql())


@dataclass(frozen=True)
class Like(Expression):
    """``expr LIKE pattern`` with % and _ wildcards, case-insensitive."""

    operand: Expression
    pattern: str

    def _regex(self) -> "re.Pattern":
        out = []
        for ch in self.pattern:
            if ch == "%":
                out.append(".*")
            elif ch == "_":
                out.append(".")
            else:
                out.append(re.escape(ch))
        return re.compile("^%s$" % "".join(out), re.IGNORECASE)

    def bind(self, columns: Sequence[str]) -> Bound:
        operand = self.operand.bind(columns)
        match = self._regex().match

        def like(row):
            value = operand(row)
            if value is None:
                return None
            return bool(match(str(value)))
        return like

    def columns(self) -> List[str]:
        return self.operand.columns()

    def sql(self) -> str:
        return "(%s LIKE %s)" % (
            self.operand.sql(), Literal(self.pattern).sql(),
        )


@dataclass(frozen=True)
class Lower(Expression):
    """``LOWER(column)``: the cell's text form lower-cased; NULL stays
    NULL."""

    column: ColumnRef

    def bind(self, columns: Sequence[str]) -> Bound:
        value = self.column.bind(columns)

        def lower(row):
            cell = value(row)
            return None if cell is None else str(cell).lower()
        return lower

    def columns(self) -> List[str]:
        return self.column.columns()

    def sql(self) -> str:
        return "LOWER(%s)" % self.column.sql()
