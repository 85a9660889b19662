"""Logical query specifications produced by operator synthesis.

A :class:`QuerySpec` is the flat, comparable form of a synthesized
query: one base table, optional equi-joins, conjunctive filters,
grouping, aggregates, projection and ordering. Flat specs (rather than
operator trees) make E5's plan-accuracy metric a simple signature
comparison, and compile 1:1 to the engine's SQL subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from ..errors import SynthesisError

FILTER_OPS = ("=", "!=", "<", "<=", ">", ">=", "like")
AGG_FUNCS = ("sum", "avg", "count", "min", "max")


@dataclass(frozen=True)
class FilterSpec:
    """One conjunctive predicate: column op value."""

    column: str
    op: str
    value: Any

    def __post_init__(self):
        if self.op not in FILTER_OPS:
            raise SynthesisError("unsupported filter op %r" % self.op)

    def signature(self) -> Tuple:
        """Canonical comparison form (numbers normalized to float)."""
        value = self.value
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            value = float(value)
        elif isinstance(value, str):
            value = value.strip().lower()
        return (self.column, self.op, value)


@dataclass(frozen=True)
class JoinSpec:
    """An equi-join to another table."""

    table: str
    left_column: str
    right_column: str

    def signature(self) -> Tuple:
        """Canonical comparison form."""
        return (self.table, self.left_column, self.right_column)


@dataclass(frozen=True)
class AggregateSpec:
    """An aggregate over one column ('*' for COUNT(*))."""

    func: str
    column: str = "*"
    distinct: bool = False

    def __post_init__(self):
        if self.func not in AGG_FUNCS:
            raise SynthesisError("unsupported aggregate %r" % self.func)
        if self.func != "count" and self.column == "*":
            raise SynthesisError("%s(*) is not valid" % self.func)
        if self.distinct and (self.func != "count" or self.column == "*"):
            raise SynthesisError("only COUNT(DISTINCT column) is valid")

    def signature(self) -> Tuple:
        """Canonical comparison form."""
        return (self.func, self.column, self.distinct)


@dataclass
class QuerySpec:
    """A complete synthesized query."""

    table: str
    joins: Tuple[JoinSpec, ...] = ()
    filters: Tuple[FilterSpec, ...] = ()
    group_by: Tuple[str, ...] = ()
    aggregates: Tuple[AggregateSpec, ...] = ()
    having: Tuple[Tuple[AggregateSpec, str, Any], ...] = ()
    projection: Tuple[str, ...] = ()
    order_by: Optional[str] = None
    descending: bool = False
    limit: Optional[int] = None

    def __post_init__(self):
        if not self.table:
            raise SynthesisError("query needs a base table")
        if not (self.aggregates or self.projection or self.group_by):
            raise SynthesisError(
                "query needs aggregates, a projection or grouping"
            )
        if self.group_by and not self.aggregates:
            raise SynthesisError("grouping without aggregates is ambiguous")

    @property
    def is_aggregate(self) -> bool:
        """True for aggregate queries (global or grouped)."""
        return bool(self.aggregates)

    def signature(self) -> Tuple:
        """Order-insensitive canonical form for plan-accuracy scoring.

        Two specs with the same signature produce the same result
        modulo row order.
        """
        return (
            self.table,
            tuple(sorted(j.signature() for j in self.joins)),
            tuple(sorted(f.signature() for f in self.filters)),
            tuple(sorted(self.group_by)),
            tuple(sorted(a.signature() for a in self.aggregates)),
            tuple(sorted(
                (agg.signature(), op, float(value))
                for agg, op, value in self.having
            )),
            tuple(sorted(self.projection)),
            self.order_by,
            self.descending,
            self.limit,
        )

    def matches(self, other: "QuerySpec") -> bool:
        """Exact logical-plan match (E5's strict metric)."""
        return self.signature() == other.signature()

    def describe(self) -> str:
        """One-line human-readable rendering."""
        parts = ["FROM %s" % self.table]
        for join in self.joins:
            parts.append("JOIN %s ON %s=%s" % (
                join.table, join.left_column, join.right_column
            ))
        if self.filters:
            parts.append("WHERE " + " AND ".join(
                "%s %s %r" % (f.column, f.op, f.value) for f in self.filters
            ))
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(self.group_by))
        if self.aggregates:
            parts.append("AGG " + ", ".join(
                "%s(%s)" % (a.func, a.column) for a in self.aggregates
            ))
        if self.having:
            parts.append("HAVING " + " AND ".join(
                "%s(%s) %s %r" % (agg.func, agg.column, op, value)
                for agg, op, value in self.having
            ))
        if self.projection:
            parts.append("SELECT " + ", ".join(self.projection))
        if self.order_by:
            parts.append("ORDER BY %s%s" % (
                self.order_by, " DESC" if self.descending else ""
            ))
        if self.limit is not None:
            parts.append("LIMIT %d" % self.limit)
        return " | ".join(parts)
