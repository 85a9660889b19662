"""Semantic Operator Synthesis (paper Section III.C, task 2).

Binds an :class:`IntentFrame` against a :class:`SchemaCatalog` to
produce a :class:`QuerySpec`:

1. the aggregate's metric term resolves to a column (fuzzy + synonyms);
2. entity mentions bind through the value index to equality filters;
3. comparison phrases bind to columns via their context words;
4. quarter/year mentions bind to time columns;
5. the grouping term resolves to a column;
6. the base table is the metric's table, and every other bound table is
   reached through registered join paths (synthesized SQL joins — the
   paper's "operations like SQL joins can also be synthesized").
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import SynthesisError
from ..text.stemmer import stem
from .catalog import ColumnBinding, QuestionFrame, SchemaCatalog, ValueHit
from .intents import Comparison, IntentFrame
from .logical import AggregateSpec, FilterSpec, JoinSpec, QuerySpec

_TIME_TERMS = ("quarter", "year")

_NEGATION_PREFIX = (
    r"(?:not(?:\s+from|\s+by|\s+in)?|except(?:\s+for)?|other\s+than|"
    r"excluding|outside(?:\s+of)?)"
)


def _is_negated_mention(question: str, value: str) -> bool:
    """True when *value*'s mention is negated ("not from Acme")."""
    pattern = _NEGATION_PREFIX + r"\s+(?:the\s+)?" + re.escape(value)
    return re.search(pattern, question.lower()) is not None


class OperatorSynthesizer:
    """NL question → :class:`QuerySpec` against one catalog."""

    def __init__(self, catalog: SchemaCatalog):
        self._catalog = catalog

    # ------------------------------------------------------------------
    def synthesize(self, question: str,
                   frame: Optional[QuestionFrame] = None) -> QuerySpec:
        """Synthesize a query spec (raises SynthesisError when unbound).

        *frame* is this catalog's analysis of *question*
        (:meth:`SchemaCatalog.frame`); it is built here when not given.
        The router hands its own frame down the plan, so a routed
        question is analysed once.
        """
        if frame is None:
            frame = self._catalog.frame(question)
        value_hits = frame.value_hits
        involved = [hit.table for hit in value_hits]

        metric_binding = self._bind_metric(frame, prefer=involved)
        intent = frame.intent
        base_table = self._choose_base_table(
            intent, metric_binding, value_hits
        )

        filters: List[FilterSpec] = []
        needed_tables: Set[str] = set()
        for hit in self._pick_value_bindings(value_hits, base_table):
            op = "!=" if _is_negated_mention(question, hit.value) else "="
            filters.append(FilterSpec(hit.column, op, hit.value))
            needed_tables.add(hit.table)
        filters.extend(
            self._bind_time_filters(intent, base_table, needed_tables)
        )
        for comparison in intent.comparisons:
            spec = self._bind_comparison(
                comparison, base_table, needed_tables
            )
            if spec is not None:
                filters.append(spec)

        # Directional metric terms ("a satisfaction decrease") imply a
        # sign filter on signed-change columns when counting events and
        # no explicit threshold was given.
        if (intent.aggregate == "count" and metric_binding is not None
                and not any(f.column == metric_binding.column
                            for f in filters)):
            direction = self._metric_term_direction(intent)
            if direction is not None and (
                "change" in metric_binding.column
                or "percent" in metric_binding.column
            ):
                filters.append(FilterSpec(
                    metric_binding.column,
                    ">" if direction == "up" else "<", 0.0,
                ))
                needed_tables.add(metric_binding.table)

        group_by: Tuple[str, ...] = ()
        if intent.group_term and intent.is_aggregate:
            binding = self._bind_group(intent.group_term, base_table)
            if binding is not None:
                group_by = (binding.column,)
                needed_tables.add(binding.table)

        aggregates: Tuple[AggregateSpec, ...] = ()
        projection: Tuple[str, ...] = ()
        order_by: Optional[str] = None
        descending = False
        limit = intent.limit
        having: Tuple = ()
        group_have = self._bind_qualified_group(intent, base_table)
        if (group_have is not None and metric_binding is not None
                and intent.comparisons and intent.superlative is None):
            # "List manufacturers with total sales above 500": group by
            # the noun's column, aggregate the metric, and turn the
            # comparison into a HAVING condition.
            func = "avg" if "average" in question.lower() else "sum"
            agg = AggregateSpec(func, metric_binding.column)
            having = tuple(
                (agg, c.op, c.value) for c in intent.comparisons
            )
            filters = [
                f for f in filters if f.column != metric_binding.column
            ]
            group_by = (group_have.column,)
            aggregates = (agg,)
            projection = group_by
            needed_tables.add(group_have.table)
            needed_tables.add(metric_binding.table)
            joins = self._plan_joins(base_table, needed_tables)
            return QuerySpec(
                table=base_table,
                joins=tuple(joins),
                filters=tuple(dict.fromkeys(filters)),
                group_by=group_by,
                aggregates=aggregates,
                having=having,
                projection=projection,
                limit=intent.limit,
            )

        if intent.superlative is not None and intent.wants_entity:
            # "Which product has the highest price?" — order by the
            # bound metric, return the top entity.
            if metric_binding is None:
                raise SynthesisError(
                    "superlative question needs a metric column: %r"
                    % question
                )
            needed_tables.add(metric_binding.table)
            group_binding = self._bind_group_entity(intent, base_table)
            if group_binding is not None:
                # "Which manufacturer had the largest average X?" —
                # aggregate per group, order by the aggregate.
                group_by = (group_binding.column,)
                needed_tables.add(group_binding.table)
                func = "avg" if "average" in question.lower() else "sum"
                aggregates = (AggregateSpec(func, metric_binding.column),)
                projection = group_by
                order_by = "%s_%s" % (func, metric_binding.column)
            else:
                projection = (self._catalog.display_column(base_table),)
                order_by = metric_binding.column
            descending = intent.superlative == "max"
            if limit is None:
                limit = 1
        elif intent.is_aggregate:
            aggregates = (self._make_aggregate(intent, metric_binding),)
            if metric_binding is not None:
                needed_tables.add(metric_binding.table)
            projection = group_by
        elif metric_binding is not None:
            needed_tables.add(metric_binding.table)
            has_metric_range = any(
                f.column == metric_binding.column and f.op != "="
                for f in filters
            )
            if intent.wants_list and has_metric_range:
                # "List products with an increase above 10%": the
                # metric is a qualifier; project the entities.
                projection = (self._catalog.display_column(base_table),)
            else:
                # Non-aggregate value question ("how much did X
                # change"): project the bound metric column itself.
                projection = (metric_binding.column,)
        else:
            display = self._catalog.display_column(base_table)
            projection = (display,)

        joins = self._plan_joins(base_table, needed_tables)
        return QuerySpec(
            table=base_table,
            joins=tuple(joins),
            filters=tuple(dict.fromkeys(filters)),  # dedupe, keep order
            group_by=group_by,
            aggregates=aggregates,
            projection=projection,
            order_by=order_by,
            descending=descending,
            limit=limit,
        )

    # ------------------------------------------------------------------
    def _pick_value_bindings(self, value_hits: Sequence[ValueHit],
                             base_table: str) -> List[ValueHit]:
        """One binding per mentioned value: same-table, else joinable."""
        by_value: Dict[str, List[ValueHit]] = {}
        for hit in value_hits:
            by_value.setdefault(hit.value, []).append(hit)
        chosen: List[ValueHit] = []
        for value in sorted(by_value):
            group = by_value[value]
            same = [h for h in group if h.table == base_table]
            if same:
                chosen.append(same[0])
                continue
            joinable = []
            for hit in group:
                try:
                    path = self._catalog.join_path(base_table, hit.table)
                except SynthesisError:
                    continue
                joinable.append((len(path), hit.table, hit.column, hit))
            if joinable:
                # Fewest joins wins; ties break deterministically.
                joinable.sort(key=lambda t: t[:3])
                chosen.append(joinable[0][3])
            else:
                chosen.append(group[0])
        return chosen

    def _bind_metric(self, frame: QuestionFrame,
                     prefer: Sequence[str]) -> Optional[ColumnBinding]:
        if frame.metric_candidates:
            return frame.metric_bindings(prefer)[0]
        intent = frame.intent
        if intent.is_aggregate and intent.aggregate != "count":
            # Fall back: any content term that resolves strongly.
            for term in intent.content_terms:
                candidates = self._catalog.resolve_column(term, prefer)
                if candidates and candidates[0].score >= 0.8:
                    return candidates[0]
            raise SynthesisError(
                "cannot bind a metric column for %r" % intent.question
            )
        return None

    def _choose_base_table(self, frame: IntentFrame,
                           metric: Optional[ColumnBinding],
                           value_hits: Sequence[ValueHit]) -> str:
        if metric is not None:
            return metric.table
        if value_hits:
            return value_hits[0].table
        # Entity-listing question without values: guess from terms.
        for term in frame.content_terms:
            for table in self._catalog.tables():
                if term.rstrip("s") == table.rstrip("s"):
                    return table
        tables = self._catalog.tables()
        if not tables:
            raise SynthesisError("catalog has no tables")
        raise SynthesisError(
            "cannot choose a table for %r" % frame.question
        )

    def _bind_time_filters(self, frame: IntentFrame, base_table: str,
                           needed_tables: Set[str]) -> List[FilterSpec]:
        filters: List[FilterSpec] = []
        if frame.quarter is not None:
            binding = self._first_binding("quarter", base_table)
            if binding is not None:
                filters.append(
                    FilterSpec(binding.column, "=", frame.quarter.lower())
                )
                needed_tables.add(binding.table)
        if frame.year is not None:
            binding = self._first_binding("year", base_table)
            if binding is not None:
                filters.append(FilterSpec(binding.column, "=",
                                          float(frame.year)))
                needed_tables.add(binding.table)
        return filters

    _QUALIFIED_NOUN_RE = re.compile(
        r"^\s*(?:list|show|which|what|find)\s+(?:the\s+|all\s+)?"
        r"([a-z][a-z_ ]{2,24}?)\s+(?:with|having|whose|have|has|had)\b",
        re.IGNORECASE,
    )

    def _bind_qualified_group(self, frame: IntentFrame,
                              base_table: str) -> Optional[ColumnBinding]:
        """Noun of "list <noun> with <agg condition>" when it resolves
        to a grouping column (not a table of rows)."""
        match = self._QUALIFIED_NOUN_RE.match(frame.question)
        if match is None:
            return None
        term = match.group(1).strip().lower()
        for table in self._catalog.tables():
            if stem(term.split()[-1]) in (stem(table.rstrip("s")),
                                          stem(table)):
                return None
        candidates = self._catalog.resolve_column(term, [base_table])
        if candidates and candidates[0].score >= 0.5:
            return candidates[0]
        return None

    _WHICH_NOUN_RE = re.compile(
        r"^\s*(?:which|what)\s+([a-z][a-z_ ]{2,24}?)\s+"
        r"(?:has|had|have|is|was|were|with|saw|got|generated|earned|"
        r"sold|moved|recorded)\b",
        re.IGNORECASE,
    )

    def _bind_group_entity(self, frame: IntentFrame,
                           base_table: str) -> Optional[ColumnBinding]:
        """For group-superlatives: the noun after which/what, when it
        resolves to a *grouping* column rather than a table of rows."""
        match = self._WHICH_NOUN_RE.match(frame.question)
        if match is None:
            return None
        term = match.group(1).strip().lower()
        # A term naming a whole table ("which product ...") means the
        # answer is a row of that table, not a group.
        for table in self._catalog.tables():
            if stem(term.split()[-1]) == stem(table.rstrip("s")) or \
                    stem(term.split()[-1]) == stem(table):
                return None
        candidates = self._catalog.resolve_column(term, [base_table])
        if candidates and candidates[0].score >= 0.5:
            return candidates[0]
        return None

    @staticmethod
    def _metric_term_direction(frame: IntentFrame) -> Optional[str]:
        from ..extraction.normalize import detect_direction

        return detect_direction(" ".join(frame.metric_terms))

    def _first_binding(self, term: str,
                       base_table: str) -> Optional[ColumnBinding]:
        candidates = self._catalog.resolve_column(term, [base_table])
        return candidates[0] if candidates else None

    def _bind_comparison(self, comparison: Comparison, base_table: str,
                         needed_tables: Set[str]) -> Optional[FilterSpec]:
        context_terms = comparison.context.split()
        if comparison.is_percent:
            context_terms = context_terms + ["change_percent", "percent"]
        for term in reversed(context_terms):
            candidates = self._catalog.resolve_column(term, [base_table])
            if candidates and candidates[0].score >= 0.5:
                binding = candidates[0]
                needed_tables.add(binding.table)
                return FilterSpec(binding.column, comparison.op,
                                  comparison.value)
        return None

    def _bind_group(self, term: str,
                    base_table: str) -> Optional[ColumnBinding]:
        candidates = self._catalog.resolve_column(term, [base_table])
        if candidates and candidates[0].score >= 0.5:
            return candidates[0]
        return None

    def _make_aggregate(self, frame: IntentFrame,
                        metric: Optional[ColumnBinding]) -> AggregateSpec:
        func = frame.aggregate or "count"
        if func == "count":
            # Row counting: COUNT(*) is the canonical form (COUNT(col)
            # would silently skip NULLs).
            return AggregateSpec("count", "*")
        if metric is None:
            raise SynthesisError(
                "aggregate %r needs a metric column" % func
            )
        return AggregateSpec(func, metric.column)

    def _plan_joins(self, base_table: str,
                    needed_tables: Set[str]) -> List[JoinSpec]:
        joins: List[JoinSpec] = []
        joined = {base_table}
        for table in sorted(needed_tables - {base_table}):
            path = self._catalog.join_path(base_table, table)
            for join in path:
                if join.table not in joined:
                    joins.append(join)
                    joined.add(join.table)
        return joins
