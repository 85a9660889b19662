"""Reference checking of SELECT statements against schemas.

:func:`check_references` resolves every column a parsed
:class:`~.sql_parser.SelectStatement` names, against a ``schema_of(table)
-> TableSchema | None`` catalog callback, before any plan is built. It
reports:

* ``unknown-table`` / ``unknown-column`` — a reference that cannot
  resolve (error; execution would fail on the first row);
* ``ambiguous-column`` — an unqualified name matching several tables
  (warning; execution raises only if the reference is evaluated).

It is the gate :class:`~.database.Database` runs before planning any
SELECT, where an ``unknown-column`` error raises
:class:`~...errors.PlanError`.

Resolution deliberately mirrors the runtime rules of
:meth:`~.expressions.ColumnRef.bind`: a qualified reference resolves
only in the table its qualifier names; an unqualified one takes a
unique suffix match across all tables in scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Set

from .expressions import BinaryOp, ColumnRef, Like, Lower, UnaryOp
from .sql_parser import AggregateCall, SelectStatement

ERROR = "error"
WARNING = "warning"


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
    """Alias -> column names of the statement's tables."""

    def __init__(self, stmt: SelectStatement, schema_of: Callable):
        self.aliases: Dict[str, Set[str]] = {}
        self.missing_tables: List[str] = []
        for ref in [stmt.table] + [j.table for j in stmt.joins]:
            schema = schema_of(ref.name)
            if schema is None:
                self.missing_tables.append(ref.name)
                self.aliases[ref.effective_name] = set()
            else:
                self.aliases[ref.effective_name] = {
                    col.name for col in schema.columns
                }

    def resolve(self, ref: ColumnRef) -> str:
        """Resolve *ref* the way the executor would: "ok", "unknown" or
        "ambiguous"."""
        if ref.table:
            # A qualifier names exactly one table in scope, or nothing.
            if ref.name in self.aliases.get(ref.table, ()):
                return "ok"
            return "unknown"
        # An unqualified name: suffix fallback over every table in scope.
        hits = sum(ref.name in columns for columns in self.aliases.values())
        if hits == 1:
            return "ok"
        return "ambiguous" if hits else "unknown"


def _children(expr: Any) -> List[Any]:
    """Direct child expressions of one AST node."""
    if isinstance(expr, BinaryOp):
        return [expr.left, expr.right]
    if isinstance(expr, (UnaryOp, Like)):
        return [expr.operand]
    if isinstance(expr, Lower):
        return [expr.column]
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
            status = self.scope.resolve(ref)
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

    # -- clause drivers ------------------------------------------------
    def run(self) -> List[PlanDiagnostic]:
        """Reference resolution over every clause, in clause order."""
        stmt = self.stmt
        for table in self.scope.missing_tables:
            self.emit("unknown-table", ERROR, "unknown table %r" % table)
        if not stmt.star:
            for item in stmt.items:
                self.check_refs(item.expr, "select list")
        for join in stmt.joins:
            self.check_refs(join.condition, "JOIN condition")
        if stmt.where is not None:
            self.check_refs(stmt.where, "WHERE")
        for ref in stmt.group_by:
            self.check_refs(ref, "GROUP BY")
        if stmt.having is not None:
            self._check_output_scope(stmt.having, "HAVING")
        for item in stmt.order_by:
            self._check_output_scope(item.expr, "ORDER BY")
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


def check_references(stmt: SelectStatement,
                     schema_of: Callable) -> List[PlanDiagnostic]:
    """Statically resolve *stmt*'s references against the catalog.

    *schema_of* maps a table name to its
    :class:`~.schema.TableSchema`, or ``None`` when unknown. Returns the
    ``unknown-table``, ``unknown-column`` and ``ambiguous-column``
    findings sorted errors-first, stable within severity.
    """
    diagnostics = _Checker(stmt, schema_of).run()
    diagnostics.sort(key=lambda d: d.severity != ERROR)
    return diagnostics
