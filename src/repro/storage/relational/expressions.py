"""Expression AST and evaluator for the SQL subset.

An expression is *bound* once per statement against a column layout —
the ordered column names (optionally qualified, "table.column") of the
row tuples it will see — which resolves every column reference to a
tuple position and returns a closure that is then called per row. NULL
semantics follow SQL pragmatically: NULL propagates through arithmetic
and comparisons, and a NULL predicate result (falsy) filters the row
out.
"""

from __future__ import annotations

import datetime as _dt
import re
from dataclasses import dataclass
from operator import itemgetter
from typing import (
    Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple,
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

        Binding never raises: an unresolvable reference, unknown
        function or operator binds to a closure raising the typed
        error on its first call.
        """
        raise NotImplementedError

    def evaluate(self, row: Mapping[str, Any]) -> Any:
        """One-shot convenience: bind to *row*'s keys, apply to its
        values. Per-row callers bind once instead."""
        return self.bind(tuple(row))(tuple(row.values()))

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

    def bind(self, columns: Sequence[str]) -> Bound:
        # A name repeated in the layout resolves to its last occurrence.
        last = {name: pos for pos, name in enumerate(columns)}
        if self.table and self.qualified in last:
            return itemgetter(last[self.qualified])
        if self.name in last:
            return itemgetter(last[self.name])
        # Fall back: unique suffix match over qualified names.
        suffix = "." + self.name
        hits = [name for name in last if name.endswith(suffix)]
        if len(hits) == 1:
            return itemgetter(last[hits[0]])
        if len(hits) > 1:
            return _raises(
                ExecutionError, "ambiguous column %r (candidates: %s)"
                % (self.name, ", ".join(sorted(hits)))
            )
        return _raises(ExecutionError, "unknown column %r" % self.qualified)

    def columns(self) -> List[str]:
        return [self.qualified]

    def sql(self) -> str:
        return self.qualified


def _null_if_any_none(fn: Callable) -> Callable:
    def wrapped(a, b):
        if a is None or b is None:
            return None
        return fn(a, b)
    return wrapped


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


_BINOPS: Dict[str, Callable] = {
    "+": _null_if_any_none(lambda a, b: a + b),
    "-": _null_if_any_none(lambda a, b: a - b),
    "*": _null_if_any_none(lambda a, b: a * b),
    "/": _null_if_any_none(
        lambda a, b: (a / b) if b != 0 else None
    ),
    "%": _null_if_any_none(lambda a, b: (a % b) if b != 0 else None),
}

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
    """Arithmetic, comparison, or boolean connective."""

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
        if op == "OR":
            def disjunction(row):
                lhs = left(row)
                if lhs is True:
                    return True
                rhs = right(row)
                if rhs is True:
                    return True
                if lhs is None or rhs is None:
                    return None
                return bool(lhs) or bool(rhs)
            return disjunction
        if op in _BINOPS:
            apply = _BINOPS[op]
            return lambda row: apply(left(row), right(row))
        if (op == "=" and isinstance(self.right, Literal)
                and type(self.right.value) is str):
            # The entity-match shape (col / LOWER(col) = 'text'): two
            # strings compare directly; anything else goes through
            # _cmp_values for its NULL handling and type errors.
            text = self.right.value

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


def conjunction(terms: Sequence[Expression]) -> Optional[Expression]:
    """*terms* ANDed left to right, the way the parser nests a chain of
    ANDs; None when there are none."""
    expr: Optional[Expression] = None
    for term in terms:
        expr = term if expr is None else BinaryOp("AND", expr, term)
    return expr


@dataclass(frozen=True)
class UnaryOp(Expression):
    """NOT or arithmetic negation."""

    op: str
    operand: Expression

    def bind(self, columns: Sequence[str]) -> Bound:
        operand = self.operand.bind(columns)
        op = self.op.upper()
        if op == "NOT":
            def negation(row):
                value = operand(row)
                return None if value is None else not bool(value)
            return negation
        if op == "-":
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
class IsNull(Expression):
    """``expr IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False

    def bind(self, columns: Sequence[str]) -> Bound:
        operand = self.operand.bind(columns)
        if self.negated:
            return lambda row: operand(row) is not None
        return lambda row: operand(row) is None

    def columns(self) -> List[str]:
        return self.operand.columns()

    def sql(self) -> str:
        return "(%s IS %sNULL)" % (
            self.operand.sql(), "NOT " if self.negated else ""
        )


@dataclass(frozen=True)
class InList(Expression):
    """``expr [NOT] IN (v1, v2, ...)``."""

    operand: Expression
    options: Tuple[Expression, ...]
    negated: bool = False

    def bind(self, columns: Sequence[str]) -> Bound:
        operand = self.operand.bind(columns)
        options = [opt.bind(columns) for opt in self.options]
        negated = self.negated

        def membership(row):
            value = operand(row)
            if value is None:
                return None
            found = False
            for option in options:
                candidate = option(row)
                if (candidate is not None
                        and _cmp_values(value, candidate) == 0):
                    found = True
                    break
            return (not found) if negated else found
        return membership

    def columns(self) -> List[str]:
        cols = self.operand.columns()
        for opt in self.options:
            cols.extend(opt.columns())
        return cols

    def sql(self) -> str:
        return "(%s %sIN (%s))" % (
            self.operand.sql(),
            "NOT " if self.negated else "",
            ", ".join(o.sql() for o in self.options),
        )


@dataclass(frozen=True)
class Like(Expression):
    """``expr [NOT] LIKE pattern`` with % and _ wildcards."""

    operand: Expression
    pattern: str
    negated: bool = False

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
        negated = self.negated

        def like(row):
            value = operand(row)
            if value is None:
                return None
            matched = bool(match(str(value)))
            return (not matched) if negated else matched
        return like

    def columns(self) -> List[str]:
        return self.operand.columns()

    def sql(self) -> str:
        return "(%s %sLIKE %s)" % (
            self.operand.sql(), "NOT " if self.negated else "",
            Literal(self.pattern).sql(),
        )


@dataclass(frozen=True)
class Between(Expression):
    """``expr BETWEEN low AND high`` (inclusive)."""

    operand: Expression
    low: Expression
    high: Expression

    def bind(self, columns: Sequence[str]) -> Bound:
        operand = self.operand.bind(columns)
        low, high = self.low.bind(columns), self.high.bind(columns)

        def between(row):
            value = operand(row)
            lo = low(row)
            hi = high(row)
            c1 = _cmp_values(value, lo)
            c2 = _cmp_values(value, hi)
            if c1 is None or c2 is None:
                return None
            return c1 >= 0 and c2 <= 0
        return between

    def columns(self) -> List[str]:
        return (self.operand.columns() + self.low.columns()
                + self.high.columns())

    def sql(self) -> str:
        return "(%s BETWEEN %s AND %s)" % (
            self.operand.sql(), self.low.sql(), self.high.sql()
        )


_SCALAR_FUNCS: Dict[str, Callable] = {
    "upper": lambda v: None if v is None else str(v).upper(),
    "lower": lambda v: None if v is None else str(v).lower(),
    "length": lambda v: None if v is None else len(str(v)),
    "abs": lambda v: None if v is None else abs(v),
    "round": lambda v, d=0: None if v is None else round(v, int(d)),
    "trim": lambda v: None if v is None else str(v).strip(),
    "year": lambda v: None if v is None else v.year,
    "month": lambda v: None if v is None else v.month,
}


@dataclass(frozen=True)
class FunctionCall(Expression):
    """Scalar function call (UPPER, LOWER, LENGTH, ABS, ROUND, ...)."""

    name: str
    args: Tuple[Expression, ...]

    def bind(self, columns: Sequence[str]) -> Bound:
        name = self.name
        args = [arg.bind(columns) for arg in self.args]
        fn = _SCALAR_FUNCS.get(name.lower())
        if fn is None:
            if name.lower() != "coalesce":
                return _raises(PlanError, "unknown function %r" % name)

            def coalesce(row):
                for arg in args:
                    value = arg(row)
                    if value is not None:
                        return value
                return None
            return coalesce

        def call(row):
            try:
                return fn(*[arg(row) for arg in args])
            except TypeError as exc:
                raise ExecutionError(
                    "bad arguments for %s(): %s" % (name, exc)
                ) from exc
        return call

    def columns(self) -> List[str]:
        cols: List[str] = []
        for arg in self.args:
            cols.extend(arg.columns())
        return cols

    def sql(self) -> str:
        return "%s(%s)" % (
            self.name.upper(), ", ".join(a.sql() for a in self.args)
        )
