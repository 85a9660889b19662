"""Static semantic checking of SELECT statements against schemas.

The checker validates a parsed :class:`~.sql_parser.SelectStatement`
*before* any plan is executed, against a ``schema_of(table) ->
TableSchema | None`` catalog callback. It reports:

* ``unknown-table`` / ``unknown-column`` — a reference that cannot
  resolve (error; execution would fail on the first row);
* ``type-mismatch`` — a comparison between incomparable type groups,
  e.g. ``price > 'abc'`` (error; :func:`~.expressions._cmp_values`
  would raise at execution time), and numeric aggregates (SUM/AVG)
  over non-numeric columns (warning);
* ``unsatisfiable-predicate`` — an AND-conjunction whose bounds on one
  column are contradictory, e.g. ``x > 5 AND x < 3`` (error; the query
  can never return rows);
* ``ambiguous-column`` — an unqualified name matching several tables
  (warning; execution raises only if the reference is evaluated);
* ``unused-join`` — a joined table referenced by nothing outside its
  own ON condition (warning).

:func:`check_references` runs only reference resolution (the
``unknown-*`` and ``ambiguous-column`` codes): it is the gate
:class:`~.database.Database` runs before planning any SELECT, where an
``unknown-column`` error raises :class:`~...errors.PlanError`. The
other passes are advisory; :func:`check_select` runs them all for
``Database.analyze`` and ``repro sql --explain-lint``.

Resolution deliberately mirrors the runtime rules of
:meth:`~.expressions.ColumnRef.bind`: an exact ``alias.column``
match first, then a unique suffix match across all tables in scope.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..types import DataType
from .expressions import (
    Between, BinaryOp, ColumnRef, Expression, FunctionCall, InList, IsNull,
    Like, Literal, UnaryOp, column_comparison, conjuncts,
)
from .sql_parser import AggregateCall, SelectStatement

ERROR = "error"
WARNING = "warning"

_COMPARISON_OPS = ("=", "!=", "<>", "<", "<=", ">", ">=")

# Types comparable with each other at runtime (_cmp_values): BOOL is an
# int subclass in Python, so it lives in the numeric group.
_TYPE_GROUPS = {
    DataType.INT: "numeric",
    DataType.FLOAT: "numeric",
    DataType.BOOL: "numeric",
    DataType.TEXT: "text",
    DataType.DATE: "date",
}


@dataclass(frozen=True)
class PlanDiagnostic:
    """One static finding about a SELECT statement."""

    code: str
    severity: str  # "error" | "warning"
    message: str

    def render(self) -> str:
        """``severity: [code] message`` one-liner."""
        return "%s: [%s] %s" % (self.severity, self.code, self.message)


class _Scope:
    """Alias -> {column -> DataType} view of the statement's tables."""

    def __init__(self, stmt: SelectStatement, schema_of: Callable):
        self.aliases: Dict[str, Dict[str, DataType]] = {}
        self.missing_tables: List[str] = []
        for ref in [stmt.table] + [j.table for j in stmt.joins]:
            schema = schema_of(ref.name)
            if schema is None:
                self.missing_tables.append(ref.name)
                self.aliases[ref.effective_name] = {}
            else:
                self.aliases[ref.effective_name] = {
                    col.name: col.dtype for col in schema.columns
                }

    def resolve(
        self, ref: ColumnRef
    ) -> Tuple[str, Optional[str], Optional[DataType]]:
        """Resolve *ref* the way the executor would.

        Returns ``(status, alias, dtype)`` with status one of "ok",
        "unknown", "ambiguous".
        """
        if ref.table and ref.table in self.aliases:
            dtype = self.aliases[ref.table].get(ref.name)
            if dtype is not None:
                return "ok", ref.table, dtype
        # Suffix fallback over every table in scope.
        hits = [
            (alias, columns[ref.name])
            for alias, columns in sorted(self.aliases.items())
            if ref.name in columns
        ]
        if len(hits) == 1:
            return "ok", hits[0][0], hits[0][1]
        if len(hits) > 1:
            return "ambiguous", None, None
        return "unknown", None, None


def _children(expr: Any) -> List[Any]:
    """Direct child expressions of one AST node."""
    if isinstance(expr, BinaryOp):
        return [expr.left, expr.right]
    if isinstance(expr, (UnaryOp, IsNull, Like)):
        return [expr.operand]
    if isinstance(expr, InList):
        return [expr.operand] + list(expr.options)
    if isinstance(expr, Between):
        return [expr.operand, expr.low, expr.high]
    if isinstance(expr, FunctionCall):
        return list(expr.args)
    if isinstance(expr, AggregateCall):
        return [] if expr.arg is None else [expr.arg]
    return []


def _walk(expr: Any, into_aggregates: bool = True) -> Iterator[Any]:
    """All nodes of an expression tree, including AggregateCall nodes
    (which are not :class:`Expression` subclasses). With
    ``into_aggregates=False`` aggregate arguments are skipped — in
    HAVING/ORDER BY those are replaced by precomputed values and never
    evaluated against base rows."""
    yield expr
    if isinstance(expr, AggregateCall) and not into_aggregates:
        return
    for child in _children(expr):
        yield from _walk(child, into_aggregates)


def _column_refs(expr: Any, into_aggregates: bool = True) -> List[ColumnRef]:
    return [n for n in _walk(expr, into_aggregates)
            if isinstance(n, ColumnRef)]


def _value_group(value: Any) -> Optional[str]:
    if value is None:
        return None
    if isinstance(value, bool) or isinstance(value, (int, float)):
        return "numeric"
    if isinstance(value, _dt.date):
        return "date"
    if isinstance(value, str):
        return "text"
    return None


def _expr_group(expr: Any, scope: _Scope) -> Optional[str]:
    """Comparability group of an expression's value, or None if unknown."""
    if isinstance(expr, Literal):
        return _value_group(expr.value)
    if isinstance(expr, ColumnRef):
        status, _, dtype = scope.resolve(expr)
        if status == "ok" and dtype is not None:
            return _TYPE_GROUPS[dtype]
        return None
    if isinstance(expr, UnaryOp):
        if expr.op.upper() == "NOT":
            return "numeric"  # boolean
        return _expr_group(expr.operand, scope)
    if isinstance(expr, BinaryOp):
        op = expr.op.upper() if expr.op.isalpha() else expr.op
        if op in ("AND", "OR") or op in _COMPARISON_OPS:
            return "numeric"  # boolean result
        if op in ("+", "-", "*", "/", "%"):
            left = _expr_group(expr.left, scope)
            right = _expr_group(expr.right, scope)
            if left == right:
                return left
            return None
    if isinstance(expr, FunctionCall):
        name = expr.name.lower()
        if name in ("upper", "lower", "trim"):
            return "text"
        if name in ("length", "abs", "round", "year", "month"):
            return "numeric"
    return None


class _Checker:
    def __init__(self, stmt: SelectStatement, schema_of: Callable):
        self.stmt = stmt
        self.scope = _Scope(stmt, schema_of)
        self.diagnostics: List[PlanDiagnostic] = []
        self._reported: set = set()

    def emit(self, code: str, severity: str, message: str) -> None:
        key = (code, message)
        if key in self._reported:
            return
        self._reported.add(key)
        self.diagnostics.append(PlanDiagnostic(code, severity, message))

    # -- reference checking -------------------------------------------
    def check_refs(self, expr: Any, context: str) -> None:
        for ref in _column_refs(expr):
            status, _, _ = self.scope.resolve(ref)
            if status == "unknown":
                self.emit(
                    "unknown-column", ERROR,
                    "unknown column %r in %s (tables in scope: %s)"
                    % (ref.qualified, context,
                       ", ".join(sorted(self.scope.aliases))),
                )
            elif status == "ambiguous":
                holders = sorted(
                    alias for alias, cols in self.scope.aliases.items()
                    if ref.name in cols
                )
                self.emit(
                    "ambiguous-column", WARNING,
                    "column %r in %s matches several tables (%s); "
                    "qualify it" % (ref.name, context, ", ".join(holders)),
                )

    def check_comparisons(self, expr: Any, context: str) -> None:
        for node in _walk(expr):
            if isinstance(node, BinaryOp) and node.op in _COMPARISON_OPS:
                self._compare_groups(node.left, node.right, node.op, context)
            elif isinstance(node, Between):
                self._compare_groups(node.operand, node.low, "BETWEEN",
                                     context)
                self._compare_groups(node.operand, node.high, "BETWEEN",
                                     context)
            elif isinstance(node, InList):
                for option in node.options:
                    self._compare_groups(node.operand, option, "IN", context)

    def _compare_groups(self, left: Any, right: Any, op: str,
                        context: str) -> None:
        lhs = _expr_group(left, self.scope)
        rhs = _expr_group(right, self.scope)
        if lhs is not None and rhs is not None and lhs != rhs:
            self.emit(
                "type-mismatch", ERROR,
                "%s comparison %r between %s and %s values in %s can "
                "never be evaluated"
                % (op, "%s vs %s" % (_sql(left), _sql(right)), lhs, rhs,
                   context),
            )

    # -- unsatisfiability ---------------------------------------------
    def check_satisfiable(self, where: Optional[Expression]) -> None:
        if where is None:
            return
        bounds: Dict[str, _Bounds] = {}
        for conjunct in conjuncts(where):
            self._absorb(conjunct, bounds)
        for column, bound in sorted(bounds.items()):
            reason = bound.contradiction()
            if reason is not None:
                self.emit(
                    "unsatisfiable-predicate", ERROR,
                    "WHERE constraints on %r can never hold: %s"
                    % (column, reason),
                )

    def _absorb(self, conjunct: Any, bounds: Dict[str, "_Bounds"]) -> None:
        comparison = column_comparison(conjunct)
        if comparison is not None:
            ref, op, value = comparison
            key = self._bound_key(ref)
            if key is not None:
                bounds.setdefault(key, _Bounds()).add(op, value)
        elif isinstance(conjunct, Between):
            if not isinstance(conjunct.operand, ColumnRef):
                return
            low = conjunct.low.value if isinstance(conjunct.low,
                                                   Literal) else None
            high = conjunct.high.value if isinstance(conjunct.high,
                                                     Literal) else None
            key = self._bound_key(conjunct.operand)
            if key is None:
                return
            box = bounds.setdefault(key, _Bounds())
            if low is not None:
                box.add(">=", low)
            if high is not None:
                box.add("<=", high)

    def _bound_key(self, ref: ColumnRef) -> Optional[str]:
        status, alias, _ = self.scope.resolve(ref)
        if status != "ok" or alias is None:
            return None
        return "%s.%s" % (alias, ref.name)

    # -- unused joins --------------------------------------------------
    def check_unused_joins(self) -> None:
        stmt = self.stmt
        if not stmt.joins:
            return
        outside: List[set] = []
        base_used: set = set()
        if stmt.star:
            base_used.update(self.scope.aliases)
        else:
            for item in stmt.items:
                base_used.update(self._aliases_of(item.expr))
        for expr in ([stmt.where, stmt.having] + list(stmt.group_by)
                     + [o.expr for o in stmt.order_by]):
            if expr is not None:
                base_used.update(self._aliases_of(expr))
        for join in stmt.joins:
            outside.append(self._aliases_of(join.condition))
        for i, join in enumerate(stmt.joins):
            alias = join.table.effective_name
            used = set(base_used)
            for j, aliases in enumerate(outside):
                if j != i:
                    used.update(aliases)
            if alias not in used:
                self.emit(
                    "unused-join", WARNING,
                    "joined table %r is referenced only by its own ON "
                    "condition; the join filters or multiplies rows "
                    "without contributing data" % alias,
                )

    def _check_aggregate_types(self, expr: Any) -> None:
        for node in _walk(expr):
            if (isinstance(node, AggregateCall)
                    and node.func in ("sum", "avg")
                    and node.arg is not None):
                group = _expr_group(node.arg, self.scope)
                if group is not None and group != "numeric":
                    self.emit(
                        "type-mismatch", WARNING,
                        "%s() over the %s expression %s yields no "
                        "numeric values" % (node.func.upper(), group,
                                            _sql(node.arg)),
                    )

    def _aliases_of(self, expr: Any) -> set:
        aliases = set()
        for ref in _column_refs(expr):
            status, alias, _ = self.scope.resolve(ref)
            if status == "ok" and alias is not None:
                aliases.add(alias)
            elif ref.table:
                aliases.add(ref.table)
        return aliases

    # -- clause drivers ------------------------------------------------
    def run(self, advisory: bool) -> List[PlanDiagnostic]:
        """Reference resolution over every clause; with *advisory*, the
        type, satisfiability and unused-join passes too, each run beside
        the references of the clause it reads, so findings keep clause
        order."""
        stmt = self.stmt
        for table in self.scope.missing_tables:
            self.emit("unknown-table", ERROR, "unknown table %r" % table)
        if not stmt.star:
            for item in stmt.items:
                self.check_refs(item.expr, "select list")
                if advisory:
                    self.check_comparisons(item.expr, "select list")
                    self._check_aggregate_types(item.expr)
        for join in stmt.joins:
            self.check_refs(join.condition, "JOIN condition")
            if advisory:
                self.check_comparisons(join.condition, "JOIN condition")
        if stmt.where is not None:
            self.check_refs(stmt.where, "WHERE")
            if advisory:
                self.check_comparisons(stmt.where, "WHERE")
                self.check_satisfiable(stmt.where)
        for ref in stmt.group_by:
            self.check_refs(ref, "GROUP BY")
        if stmt.having is not None:
            self._check_output_scope(stmt.having, "HAVING")
        for item in stmt.order_by:
            self._check_output_scope(item.expr, "ORDER BY")
        if advisory:
            self.check_unused_joins()
        return self.diagnostics

    def _output_names(self) -> set:
        if self.stmt.star:
            return set()
        return {item.output_name() for item in self.stmt.items}

    def _check_output_scope(self, expr: Any, context: str) -> None:
        """HAVING/ORDER BY see output columns as well as base columns."""
        outputs = self._output_names()
        group_names = {c.name for c in self.stmt.group_by}
        aggregated = self.stmt.has_aggregates or bool(self.stmt.group_by)
        for ref in _column_refs(expr, into_aggregates=False):
            if ref.table is None and ref.name in outputs:
                continue
            if ref.name in group_names:
                continue
            if aggregated:
                # Post-aggregation scope is output names + group keys;
                # anything else fails per-row at execution time.
                self.emit(
                    "unknown-column", ERROR,
                    "%s references %r which is neither an output "
                    "column nor a GROUP BY key" % (context, ref.qualified),
                )
            else:
                self.check_refs(ref, context)


def _sql(expr: Any) -> str:
    try:
        return expr.sql()
    except (AttributeError, NotImplementedError):
        return repr(expr)


class _Bounds:
    """Interval + (in)equality constraints accumulated for one column."""

    def __init__(self):
        self.low: Optional[Tuple[Any, bool]] = None  # (value, strict)
        self.high: Optional[Tuple[Any, bool]] = None
        self.eq: List[Any] = []
        self.neq: List[Any] = []

    def add(self, op: str, value: Any) -> None:
        """Record one ``column <op> value`` constraint."""
        if value is None:
            return
        if op == "=":
            self.eq.append(value)
        elif op in ("!=", "<>"):
            self.neq.append(value)
        elif op in (">", ">="):
            strict = op == ">"
            if self.low is None or self._gt(value, strict, self.low):
                self.low = (value, strict)
        elif op in ("<", "<="):
            strict = op == "<"
            if self.high is None or self._lt(value, strict, self.high):
                self.high = (value, strict)

    @staticmethod
    def _same_group(a: Any, b: Any) -> bool:
        return (_value_group(a) is not None
                and _value_group(a) == _value_group(b))

    def _gt(self, value: Any, strict: bool, bound: Tuple[Any, bool]) -> bool:
        if not self._same_group(value, bound[0]):
            return False
        return value > bound[0] or (value == bound[0]
                                    and strict and not bound[1])

    def _lt(self, value: Any, strict: bool, bound: Tuple[Any, bool]) -> bool:
        if not self._same_group(value, bound[0]):
            return False
        return value < bound[0] or (value == bound[0]
                                    and strict and not bound[1])

    def contradiction(self) -> Optional[str]:
        """Human-readable reason the constraints conflict, or None."""
        for i, a in enumerate(self.eq):
            for b in self.eq[i + 1:]:
                if self._same_group(a, b) and a != b:
                    return "= %r conflicts with = %r" % (a, b)
            for b in self.neq:
                if self._same_group(a, b) and a == b:
                    return "= %r conflicts with != %r" % (a, b)
            if self.low is not None and self._same_group(a, self.low[0]):
                lo, strict = self.low
                if a < lo or (a == lo and strict):
                    return "= %r conflicts with %s %r" % (
                        a, ">" if strict else ">=", lo)
            if self.high is not None and self._same_group(a, self.high[0]):
                hi, strict = self.high
                if a > hi or (a == hi and strict):
                    return "= %r conflicts with %s %r" % (
                        a, "<" if strict else "<=", hi)
        if (self.low is not None and self.high is not None
                and self._same_group(self.low[0], self.high[0])):
            lo, lo_strict = self.low
            hi, hi_strict = self.high
            if lo > hi or (lo == hi and (lo_strict or hi_strict)):
                return "%s %r conflicts with %s %r" % (
                    ">" if lo_strict else ">=", lo,
                    "<" if hi_strict else "<=", hi)
        return None


def check_select(stmt: SelectStatement,
                 schema_of: Callable) -> List[PlanDiagnostic]:
    """Statically validate *stmt* against the catalog.

    *schema_of* maps a table name to its
    :class:`~.schema.TableSchema`, or ``None`` when unknown. Returns
    diagnostics sorted errors-first, stable within severity.
    """
    return _sorted(_Checker(stmt, schema_of).run(advisory=True))


def check_references(stmt: SelectStatement,
                     schema_of: Callable) -> List[PlanDiagnostic]:
    """The reference-resolution part of :func:`check_select` alone:
    its ``unknown-table``, ``unknown-column`` and ``ambiguous-column``
    findings, in the same order. This is what
    :class:`~.database.Database` runs before planning a SELECT."""
    return _sorted(_Checker(stmt, schema_of).run(advisory=False))


def _sorted(diagnostics: List[PlanDiagnostic]) -> List[PlanDiagnostic]:
    diagnostics.sort(key=lambda d: (d.severity != ERROR,))
    return diagnostics
