"""Physical execution of logical plans (iterator model).

Rows flow between operators as the tables' own positional tuples; a
join concatenates its inputs'. Every relational node has a *layout* —
its rows' column names, qualified "alias.column", taken from the table
schemas when the node is opened — and each expression is bound to the
layout it runs over once per statement (:meth:`~.expressions.Expression.
bind`); only the returned closure runs per row. The executor charges
``rows_scanned`` via the tables it reads, so benchmark cost accounting
reflects real work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from ...errors import ExecutionError, PlanError
from ...obs import span
from ..types import sort_key
from .expressions import (
    BinaryOp, Bound, ColumnRef, Expression, FunctionCall, Literal,
)
from .planner import (
    AggregateNode, DistinctNode, FilterNode, HashJoinNode, IndexScanNode,
    LimitNode, NestedLoopJoinNode, PlanNode, ProjectNode, ScanNode, SortNode,
)
from .sql_parser import AggregateCall
from .table import Table

#: One row between operators: a table's stored tuple, or a join's
#: concatenation of its inputs' rows.
Row = Tuple[Any, ...]


@dataclass
class ResultSet:
    """Materialized query result: ordered column names plus row tuples."""

    columns: List[str]
    rows: List[Tuple[Any, ...]]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Rows as column→value dicts."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def column(self, name: str) -> List[Any]:
        """All values of one output column."""
        try:
            pos = self.columns.index(name)
        except ValueError:
            raise ExecutionError(
                "no output column %r (has: %s)"
                % (name, ", ".join(self.columns))
            ) from None
        return [row[pos] for row in self.rows]

    def scalar(self) -> Any:
        """The single value of a 1x1 result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ExecutionError(
                "scalar() needs a 1x1 result, got %dx%d"
                % (len(self.rows), len(self.columns))
            )
        return self.rows[0][0]

    def pretty(self, max_rows: int = 20) -> str:
        """Fixed-width text rendering (for examples and reports)."""
        headers = [str(c) for c in self.columns]
        shown = self.rows[:max_rows]
        cells = [[_fmt(v) for v in row] for row in shown]
        widths = [
            max([len(h)] + [len(row[i]) for row in cells])
            for i, h in enumerate(headers)
        ]
        sep = "-+-".join("-" * w for w in widths)
        lines = [
            " | ".join(h.ljust(w) for h, w in zip(headers, widths)), sep
        ]
        for row in cells:
            lines.append(
                " | ".join(c.ljust(w) for c, w in zip(row, widths))
            )
        if len(self.rows) > max_rows:
            lines.append("... (%d more rows)" % (len(self.rows) - max_rows))
        return "\n".join(lines)


def _fmt(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, float):
        return "%.4g" % value
    return str(value)


class _Aggregator:
    """Incremental state for one AggregateCall in one group.

    *arg* is the call's argument bound to the input layout (None for
    ``COUNT(*)``); every group's aggregator shares it.
    """

    def __init__(self, call: AggregateCall, arg: Optional[Bound]):
        self._call = call
        self._arg = arg
        self._count = 0
        self._sum = 0.0
        self._min: Any = None
        self._max: Any = None
        self._distinct: set = set()
        self._any_numeric = False

    def update(self, row: Row) -> None:
        if self._arg is None:  # COUNT(*)
            self._count += 1
            return
        value = self._arg(row)
        if value is None:
            return
        if self._call.distinct:
            self._distinct.add(value)
            return
        self._count += 1
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            self._sum += value
            self._any_numeric = True
        if self._min is None or sort_key(value) < sort_key(self._min):
            self._min = value
        if self._max is None or sort_key(value) > sort_key(self._max):
            self._max = value

    def result(self) -> Any:
        func = self._call.func
        if self._call.distinct:
            if func == "count":
                return len(self._distinct)
            values = sorted(self._distinct, key=sort_key)
            if not values:
                return None
            if func == "sum":
                return sum(values)
            if func == "avg":
                return sum(values) / len(values)
            if func == "min":
                return values[0]
            if func == "max":
                return values[-1]
            raise PlanError("unknown aggregate %r" % func)
        if func == "count":
            return self._count
        if self._count == 0:
            return None
        if func == "sum":
            if not self._any_numeric:
                raise ExecutionError("SUM over non-numeric values")
            return self._sum
        if func == "avg":
            if not self._any_numeric:
                raise ExecutionError("AVG over non-numeric values")
            return self._sum / self._count
        if func == "min":
            return self._min
        if func == "max":
            return self._max
        raise PlanError("unknown aggregate %r" % func)


def _nested_loop(left_rows: Iterable[Row], right_rows: Iterable[Row],
                 condition: Bound, padding: Optional[Row]) -> Iterator[Row]:
    right_rows = list(right_rows)
    for left in left_rows:
        matched = False
        for right in right_rows:
            combined = left + right
            if condition(combined):
                matched = True
                yield combined
        if padding is not None and not matched:
            yield left + padding


def _hash_join(left_rows: Iterable[Row], right_rows: Iterable[Row],
               left_key: Bound, right_key: Bound,
               residual: Optional[Bound],
               padding: Optional[Row]) -> Iterator[Row]:
    build: Dict[Any, List[Row]] = {}
    for right in list(right_rows):
        key = right_key(right)
        if key is not None:
            build.setdefault(key, []).append(right)
    for left in left_rows:
        key = left_key(left)
        matched = False
        if key is not None:
            for right in build.get(key, ()):
                combined = left + right
                if residual is None or residual(combined):
                    matched = True
                    yield combined
        if padding is not None and not matched:
            yield left + padding


def _layout(alias: str, table: Table) -> List[str]:
    """Qualified column names of *table*'s row tuples under *alias*."""
    return ["%s.%s" % (alias, col) for col in table.schema.column_names()]


class Executor:
    """Execute plan trees against a catalog of named tables."""

    def __init__(self, tables: Dict[str, Table]):
        self._tables = tables

    # ------------------------------------------------------------------
    def _table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise ExecutionError("unknown table %r" % name) from None

    def _open(self, node: PlanNode) -> Tuple[List[str], Iterable[Row]]:
        """Layout and (lazily scanned) rows of a relational *node*."""
        if isinstance(node, ScanNode):
            table = self._table(node.table)
            return _layout(node.alias, table), (
                row for _, row in table.scan()
            )
        if isinstance(node, IndexScanNode):
            table = self._table(node.table)
            return _layout(node.alias, table), table.lookup(
                node.column, node.value
            )
        if isinstance(node, FilterNode):
            if isinstance(node.child, ScanNode):
                return self._filtered_scan(node)
            columns, rows = self._open(node.child)
            # filter() keeps truthy results: a NULL predicate drops the row.
            return columns, filter(node.predicate.bind(columns), rows)
        if isinstance(node, (NestedLoopJoinNode, HashJoinNode)):
            left_columns, left_rows = self._open(node.left)
            right_columns, right_rows = self._open(node.right)
            columns = left_columns + right_columns
            # LEFT JOIN pads an unmatched left row with the right
            # layout's width of NULLs, whether or not the right has rows.
            padding = ((None,) * len(right_columns)
                       if node.kind == "left" else None)
            if isinstance(node, NestedLoopJoinNode):
                return columns, _nested_loop(
                    left_rows, right_rows, node.condition.bind(columns),
                    padding,
                )
            residual = (None if node.residual is None
                        else node.residual.bind(columns))
            return columns, _hash_join(
                left_rows, right_rows, node.left_key.bind(left_columns),
                node.right_key.bind(right_columns), residual, padding,
            )
        raise PlanError("cannot iterate node %r" % node.label())

    def _filtered_scan(
        self, node: FilterNode,
    ) -> Tuple[List[str], Iterable[Row]]:
        """Filter fused into its base scan, pushing the predicate down.

        Semantically identical to scan-then-filter — same rows, order
        and ``rows_scanned`` charges — but the table sees the filter's
        equality conjuncts, so a partitioned table can prune to the
        shard owning a bound entity key.
        """
        table = self._table(node.child.table)
        columns = _layout(node.child.alias, table)
        equals = _equality_conjuncts(
            node.predicate, node.child.alias, table.schema.column_names()
        )
        # The table only tests truth, so NULL (falsy) drops the row.
        matching = table.scan_matching(
            node.predicate.bind(columns), equals=equals
        )
        return columns, (row for _, row in matching)

    # ------------------------------------------------------------------
    def execute(self, node: PlanNode) -> ResultSet:
        """Run the plan to a materialized :class:`ResultSet`.

        Each recursive step opens an ``sql.exec`` span, so a traced
        query yields a span tree mirroring the plan's operator tree.
        """
        with span("sql.exec", node=type(node).__name__) as sp:
            result = self._execute_node(node)
            sp.set("rows", len(result.rows))
        return result

    def _execute_node(self, node: PlanNode) -> ResultSet:
        if isinstance(node, LimitNode):
            inner = self.execute(node.child)
            start = node.offset
            end = None if node.limit is None else start + node.limit
            return ResultSet(inner.columns, inner.rows[start:end])
        if isinstance(node, SortNode):
            child = node.child
            if isinstance(child, ProjectNode) and not child.star:
                return self._sort_then_project(node, child)
            # ORDER BY references output column names of the child.
            result = self.execute(child)
            return ResultSet(
                result.columns,
                self._sort(node.order_by, result.columns, result.rows),
            )
        if isinstance(node, DistinctNode):
            inner = self.execute(node.child)
            seen = set()
            rows = []
            for row in inner.rows:
                key = tuple(sort_key(v) for v in row)
                if key not in seen:
                    seen.add(key)
                    rows.append(row)
            return ResultSet(inner.columns, rows)
        if isinstance(node, ProjectNode):
            return self._project(node)
        if isinstance(node, AggregateNode):
            return self._aggregate(node)
        # Bare relational node: expose qualified columns as-is.
        columns, rows = self._open(node)
        return ResultSet(columns, list(rows))

    @staticmethod
    def _sort(order_by, columns: List[str],
              rows: Iterable[Row]) -> List[Row]:
        """Multi-key stable sort of rows laid out as *columns*.

        Applies one stable pass per key, last key first, reversing for
        DESC — this avoids negating non-numeric sort keys.
        """
        rows = list(rows)
        for item in reversed(order_by):
            value = item.expr.bind(columns)
            rows.sort(key=lambda row: sort_key(value(row)),
                      reverse=item.descending)
        return rows

    def _sort_then_project(self, sort_node: SortNode,
                           project: ProjectNode) -> ResultSet:
        """Sort with access to pre-projection columns, then project.

        Lets ORDER BY reference base-table columns that are not in the
        select list (e.g. ``SELECT name ... ORDER BY price``): the sort
        runs over each input row extended by its projected values.
        """
        columns, rows = self._open(project.child)
        names = [item.output_name() for item in project.items]
        exprs = [item.expr.bind(columns) for item in project.items]
        extended = [
            row + tuple([expr(row) for expr in exprs]) for row in rows
        ]
        ordered = self._sort(sort_node.order_by, columns + names, extended)
        width = len(columns)
        return ResultSet(names, [row[width:] for row in ordered])

    def _project(self, node: ProjectNode) -> ResultSet:
        columns, rows = self._open(node.child)
        if node.star:
            names = [col.split(".", 1)[-1] for col in columns]
            if len(set(names)) != len(names):
                names = columns
            return ResultSet(names, list(rows))
        exprs = [item.expr.bind(columns) for item in node.items]
        return ResultSet(
            [item.output_name() for item in node.items],
            [tuple([expr(row) for expr in exprs]) for row in rows],
        )

    def _aggregate(self, node: AggregateNode) -> ResultSet:
        columns, rows = self._open(node.child)
        group_by = [col.bind(columns) for col in node.group_by]
        calls = [item.expr for item in node.items if item.is_aggregate]
        args = [
            None if call.arg is None else call.arg.bind(columns)
            for call in calls
        ]

        def new_group(sample: Optional[Row]):
            return sample, [
                _Aggregator(call, arg) for call, arg in zip(calls, args)
            ]

        # Group key -> (the group's first row, its aggregators).
        groups: Dict[tuple, Tuple[Optional[Row], List[_Aggregator]]] = {}
        for row in rows:
            key = tuple([sort_key(value(row)) for value in group_by])
            group = groups.get(key)
            if group is None:
                group = groups[key] = new_group(row)
            for aggregator in group[1]:
                aggregator.update(row)
        if not node.group_by and not groups:
            # Global aggregate over empty input still yields one row.
            groups[()] = new_group(None)

        names = [item.output_name() for item in node.items]
        # None marks an aggregate item; the rest read the group's sample.
        exprs = [
            None if item.is_aggregate else item.expr.bind(columns)
            for item in node.items
        ]
        # HAVING sees the sample row, then the output row, then one slot
        # per select-list aggregate under its canonical name.
        having = None
        if node.having is not None:
            having = node.having.bind(
                columns + names + [call.key for call in calls]
            )
        rows_out: List[Row] = []
        for sample, aggregators in groups.values():
            results = [aggregator.result() for aggregator in aggregators]
            pending = iter(results)
            out_row = tuple([
                next(pending) if expr is None
                else None if sample is None else expr(sample)
                for expr in exprs
            ])
            if having is not None:
                if sample is None:
                    sample = (None,) * len(columns)
                if not having(sample + out_row + tuple(results)):
                    continue
            rows_out.append(out_row)
        rows_out.sort(key=lambda r: tuple(sort_key(v) for v in r))
        return ResultSet(names, rows_out)


def _conjuncts(expr: Expression, out: List[Expression]) -> None:
    if isinstance(expr, BinaryOp) and expr.op.upper() == "AND":
        _conjuncts(expr.left, out)
        _conjuncts(expr.right, out)
    else:
        out.append(expr)


def _equality_conjuncts(
    predicate: Expression, alias: str, cols: List[str],
) -> Optional[List[Tuple[str, Any]]]:
    """(column, value) pairs every row matching *predicate* satisfies.

    Recognizes top-level AND conjuncts of the shapes ``col = literal``
    and ``LOWER(col) = literal`` (the shape synthesized SQL emits for
    entity matches; shard routing canonicalizes strings to lowercase,
    so the lowered literal routes with the raw stored value). Anything
    else contributes no hint.
    """
    parts: List[Expression] = []
    _conjuncts(predicate, parts)
    hints: List[Tuple[str, Any]] = []
    for part in parts:
        if not (isinstance(part, BinaryOp) and part.op == "="):
            continue
        for lhs, rhs in ((part.left, part.right), (part.right, part.left)):
            if not isinstance(rhs, Literal):
                continue
            column = _hinted_column(lhs, alias, cols)
            if column is not None:
                hints.append((column, rhs.value))
                break
    return hints or None


def _hinted_column(expr: Expression, alias: str,
                   cols: List[str]) -> Optional[str]:
    if (isinstance(expr, FunctionCall) and expr.name.lower() == "lower"
            and len(expr.args) == 1):
        expr = expr.args[0]
    if not isinstance(expr, ColumnRef):
        return None
    if expr.table and expr.table.lower() != alias.lower():
        return None
    name = expr.name.lower()
    return name if name in cols else None
