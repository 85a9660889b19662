"""Logical planning: turn a parsed SELECT into an operator tree.

The planner performs the classic rewrites a small engine needs:

* predicate analysis — equality predicates over indexed columns become
  index scans; equi-join conditions select hash joins over nested loops;
* projection/aggregation shaping — GROUP BY plans an Aggregate node,
  plain selects a Project;
* ordering — ORDER BY/LIMIT become Sort and Limit nodes at the top.

Plan nodes are data; execution lives in :mod:`.executor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from ...errors import PlanError
from ...obs import span
from .expressions import (
    BinaryOp, ColumnRef, Expression, Literal, conjunction,
)
from .sql_parser import OrderItem, SelectItem, SelectStatement


class PlanNode:
    """Base class for logical plan nodes."""

    def children(self) -> List["PlanNode"]:
        """Child nodes (empty for leaves)."""
        return []

    def label(self) -> str:
        """One-line description used by EXPLAIN."""
        raise NotImplementedError

    def explain(self, depth: int = 0) -> str:
        """Indented multi-line plan rendering."""
        lines = ["%s%s" % ("  " * depth, self.label())]
        for child in self.children():
            lines.append(child.explain(depth + 1))
        return "\n".join(lines)


@dataclass
class ScanNode(PlanNode):
    """Full scan of a base table under an alias."""

    table: str
    alias: str

    def label(self) -> str:
        if self.alias != self.table:
            return "Scan(%s AS %s)" % (self.table, self.alias)
        return "Scan(%s)" % self.table


@dataclass
class IndexScanNode(PlanNode):
    """Equality probe of a hash index."""

    table: str
    alias: str
    column: str
    value: Any

    def label(self) -> str:
        return "IndexScan(%s.%s = %r)" % (self.alias, self.column, self.value)


@dataclass
class FilterNode(PlanNode):
    """Row filter by a predicate expression."""

    predicate: Expression
    child: PlanNode

    def children(self) -> List[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return "Filter(%s)" % self.predicate.sql()


@dataclass
class NestedLoopJoinNode(PlanNode):
    """General join on an arbitrary condition."""

    kind: str  # 'inner' or 'left'
    condition: Expression
    left: PlanNode
    right: PlanNode

    def children(self) -> List[PlanNode]:
        return [self.left, self.right]

    def label(self) -> str:
        return "NestedLoopJoin[%s](%s)" % (self.kind, self.condition.sql())


@dataclass
class HashJoinNode(PlanNode):
    """Equi-join using a build/probe hash table."""

    kind: str
    left_key: ColumnRef
    right_key: ColumnRef
    left: PlanNode
    right: PlanNode
    residual: Optional[Expression] = None

    def children(self) -> List[PlanNode]:
        return [self.left, self.right]

    def label(self) -> str:
        text = "HashJoin[%s](%s = %s)" % (
            self.kind, self.left_key.sql(), self.right_key.sql()
        )
        if self.residual is not None:
            text += " residual=%s" % self.residual.sql()
        return text


@dataclass
class ProjectNode(PlanNode):
    """Compute the select-list expressions."""

    items: List[SelectItem]
    child: PlanNode
    star: bool = False

    def children(self) -> List[PlanNode]:
        return [self.child]

    def label(self) -> str:
        if self.star:
            return "Project(*)"
        return "Project(%s)" % ", ".join(
            i.output_name() for i in self.items
        )


@dataclass
class AggregateNode(PlanNode):
    """GROUP BY + aggregate evaluation."""

    group_by: List[ColumnRef]
    items: List[SelectItem]
    having: Optional[Expression]
    child: PlanNode

    def children(self) -> List[PlanNode]:
        return [self.child]

    def label(self) -> str:
        keys = ", ".join(c.sql() for c in self.group_by) or "<all>"
        return "Aggregate(by=%s)" % keys


@dataclass
class SortNode(PlanNode):
    """ORDER BY."""

    order_by: List[OrderItem]
    child: PlanNode

    def children(self) -> List[PlanNode]:
        return [self.child]

    def label(self) -> str:
        parts = [
            "%s %s" % (o.expr.sql(), "DESC" if o.descending else "ASC")
            for o in self.order_by
        ]
        return "Sort(%s)" % ", ".join(parts)


@dataclass
class LimitNode(PlanNode):
    """LIMIT/OFFSET."""

    limit: Optional[int]
    offset: int
    child: PlanNode

    def children(self) -> List[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return "Limit(%s, offset=%d)" % (self.limit, self.offset)


@dataclass
class DistinctNode(PlanNode):
    """Duplicate elimination over the projected rows."""

    child: PlanNode

    def children(self) -> List[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return "Distinct"


def _split_conjuncts(expr: Optional[Expression]) -> List[Expression]:
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op.upper() == "AND":
        return _split_conjuncts(expr.left) + _split_conjuncts(expr.right)
    return [expr]


def _equality_probe(conjunct: Expression) -> Optional[Tuple[ColumnRef, Any]]:
    """Match  col = literal  (either side) for index-scan planning."""
    if not (isinstance(conjunct, BinaryOp) and conjunct.op == "="):
        return None
    left, right = conjunct.left, conjunct.right
    if isinstance(left, ColumnRef) and isinstance(right, Literal):
        return left, right.value
    if isinstance(right, ColumnRef) and isinstance(left, Literal):
        return right, left.value
    return None


def _equi_join_keys(
    condition: Expression, left_aliases: List[str], right_alias: str
) -> Optional[Tuple[ColumnRef, ColumnRef, List[Expression]]]:
    """Find a usable equi-join key pair among the ON conjuncts."""
    conjuncts = _split_conjuncts(condition)
    for i, conj in enumerate(conjuncts):
        if not (isinstance(conj, BinaryOp) and conj.op == "="):
            continue
        lhs, rhs = conj.left, conj.right
        if not (isinstance(lhs, ColumnRef) and isinstance(rhs, ColumnRef)):
            continue
        residual = conjuncts[:i] + conjuncts[i + 1:]
        if lhs.table in left_aliases and rhs.table == right_alias:
            return lhs, rhs, residual
        if rhs.table in left_aliases and lhs.table == right_alias:
            return rhs, lhs, residual
        # Unqualified refs: assume left-side first operand.
        if lhs.table is None or rhs.table is None:
            return lhs, rhs, residual
    return None


class Planner:
    """Build a :class:`PlanNode` tree from a :class:`SelectStatement`.

    Catalog access is via two callbacks: ``has_index(table, column)``
    for index-scan planning and ``columns_of(table)`` (returning the
    column-name set, or None when unknown) for predicate pushdown
    through joins.
    """

    def __init__(self, has_index=None, columns_of=None, schema_of=None):
        # has_index(table_name, column_name) -> bool
        self._has_index = has_index or (lambda table, column: False)
        # columns_of(table_name) -> set[str] | None
        self._columns_of = columns_of or (lambda table: None)
        # schema_of(table_name) -> TableSchema | None (plan linting)
        self._schema_of = schema_of or (lambda table: None)

    def analyze(self, stmt: SelectStatement) -> list:
        """Statically lint *stmt* against the catalog schemas.

        Returns :class:`~.plancheck.PlanDiagnostic` objects (errors
        first) without executing anything; requires the ``schema_of``
        callback for any diagnostics beyond the trivially empty list.
        """
        from .plancheck import check_select

        return check_select(stmt, self._schema_of)

    def plan(self, stmt: SelectStatement) -> PlanNode:
        """Produce the operator tree for *stmt*."""
        with span("sql.plan") as sp:
            node = self._plan_select(stmt)
            sp.set("root", type(node).__name__)
        return node

    def _plan_select(self, stmt: SelectStatement) -> PlanNode:
        node = self._plan_from(stmt)
        node = self._plan_where(stmt, node)
        if stmt.group_by or stmt.has_aggregates:
            self._check_aggregate_items(stmt)
            node = AggregateNode(stmt.group_by, stmt.items, stmt.having, node)
        else:
            if stmt.having is not None:
                raise PlanError("HAVING requires GROUP BY or aggregates")
            node = ProjectNode(stmt.items, node, star=stmt.star)
        if stmt.distinct:
            node = DistinctNode(node)
        if stmt.order_by:
            node = SortNode(stmt.order_by, node)
        if stmt.limit is not None or stmt.offset:
            node = LimitNode(stmt.limit, stmt.offset, node)
        return node

    # ------------------------------------------------------------------
    def _plan_from(self, stmt: SelectStatement) -> PlanNode:
        base: PlanNode = ScanNode(stmt.table.name, stmt.table.effective_name)
        aliases = [stmt.table.effective_name]
        for join in stmt.joins:
            if join.table.effective_name in aliases:
                # Both copies' columns would share their qualified names.
                raise PlanError(
                    "duplicate table name or alias %r in FROM/JOIN "
                    "(alias one of them)" % join.table.effective_name
                )
            right: PlanNode = ScanNode(
                join.table.name, join.table.effective_name
            )
            keys = _equi_join_keys(
                join.condition, aliases, join.table.effective_name
            )
            if keys is not None:
                left_key, right_key, residual = keys
                base = HashJoinNode(
                    join.kind, left_key, right_key, base, right,
                    residual=conjunction(residual),
                )
            else:
                base = NestedLoopJoinNode(
                    join.kind, join.condition, base, right
                )
            aliases.append(join.table.effective_name)
        return base

    def _plan_where(self, stmt: SelectStatement, node: PlanNode) -> PlanNode:
        if stmt.where is None:
            return node
        conjuncts = _split_conjuncts(stmt.where)
        remaining: List[Expression] = []
        if stmt.joins:
            # Predicate pushdown: single-table conjuncts evaluate below
            # the join, shrinking its inputs.
            node, conjuncts = self._push_down(stmt, node, conjuncts)
            if not conjuncts:
                return node
        # Only try an index scan for single-table queries: with joins the
        # probe column binding becomes ambiguous for this small planner.
        if isinstance(node, ScanNode):
            for i, conj in enumerate(conjuncts):
                probe = _equality_probe(conj)
                if probe is None:
                    continue
                col, value = probe
                if col.table not in (None, node.alias):
                    continue
                if self._has_index(node.table, col.name):
                    new_node: PlanNode = IndexScanNode(
                        node.table, node.alias, col.name, value
                    )
                    remaining = conjuncts[:i] + conjuncts[i + 1:]
                    residual = conjunction(remaining)
                    if residual is not None:
                        new_node = FilterNode(residual, new_node)
                    return new_node
        predicate = conjunction(conjuncts)
        return FilterNode(predicate, node)

    # ------------------------------------------------------------------
    def _binding_table(self, stmt: SelectStatement,
                       conjunct: Expression) -> Optional[str]:
        """The single table alias a conjunct's columns all belong to,
        or None when it spans tables / cannot be attributed."""
        refs = stmt.joins and [stmt.table] + [j.table for j in stmt.joins]
        owners: set = set()
        for column in conjunct.columns():
            if "." in column:
                owners.add(column.split(".", 1)[0])
                continue
            # Unqualified: attribute by unique schema membership.
            holders = []
            for ref in refs:
                cols = self._columns_of(ref.name)
                if cols is None:
                    return None
                if column in cols:
                    holders.append(ref.effective_name)
            if len(holders) != 1:
                return None
            owners.add(holders[0])
        if len(owners) == 1:
            return owners.pop()
        return None

    def _push_down(self, stmt: SelectStatement, node: PlanNode,
                   conjuncts: List[Expression]):
        by_alias: dict = {}
        remaining: List[Expression] = []
        for conjunct in conjuncts:
            alias = self._binding_table(stmt, conjunct)
            if alias is None:
                remaining.append(conjunct)
            else:
                by_alias.setdefault(alias, []).append(conjunct)
        if not by_alias:
            return node, conjuncts

        def rewrite(plan: PlanNode) -> PlanNode:
            if isinstance(plan, (ScanNode, IndexScanNode)):
                pushed = by_alias.pop(plan.alias, None)
                if pushed:
                    return FilterNode(conjunction(pushed), plan)
                return plan
            if isinstance(plan, HashJoinNode):
                plan.left = rewrite(plan.left)
                if plan.kind == "inner":
                    plan.right = rewrite(plan.right)
                return plan
            if isinstance(plan, NestedLoopJoinNode):
                plan.left = rewrite(plan.left)
                if plan.kind == "inner":
                    plan.right = rewrite(plan.right)
                return plan
            return plan

        node = rewrite(node)
        # Anything not placed (e.g. right side of a LEFT join, where
        # pushdown would change semantics) stays above the join.
        for leftovers in by_alias.values():
            remaining.extend(leftovers)
        return node, remaining

    @staticmethod
    def _check_aggregate_items(stmt: SelectStatement) -> None:
        group_names = {c.name for c in stmt.group_by}
        group_quals = {c.qualified for c in stmt.group_by}
        for item in stmt.items:
            if item.is_aggregate:
                continue
            expr = item.expr
            for col in expr.columns():
                bare = col.split(".")[-1]
                if col not in group_quals and bare not in group_names:
                    raise PlanError(
                        "column %r must appear in GROUP BY or an aggregate"
                        % col
                    )
