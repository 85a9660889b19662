"""Schema catalog: the binding context for operator synthesis.

Wraps a :class:`Database` with what an NL-to-query layer needs:

* fuzzy column resolution (exact name → synonym → stem overlap);
* a value index over TEXT columns, so entity mentions in a question
  ("Alpha Widget", "Acme") bind to the column that contains them —
  classic value-based schema linking;
* a foreign-key graph with BFS join-path discovery;
* :meth:`SchemaCatalog.frame`, one question's analysis against all of
  the above, built once and read by both the router and synthesis.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..errors import SynthesisError
from ..storage.relational.database import Database
from ..storage.relational.schema import TableSchema
from ..storage.types import DataType
from ..text.stemmer import stem
from ..text.stopwords import content_stems
from .intents import IntentFrame, analyze
from .logical import JoinSpec

#: Score added to a candidate whose table the caller prefers.
PREFER_BONUS = 0.05

#: A maximal alphanumeric run: ``[^\W_]`` is exactly ``str.isalnum``.
_RUN = re.compile(r"[^\W_]+")

#: Per table, what column resolution reads: its name, the name's stem
#: and per column ``(name, stem, part stems)``.
_ColumnTable = List[Tuple[str, str, List[Tuple[str, str, FrozenSet[str]]]]]


@dataclass(frozen=True)
class ColumnBinding:
    """A (table, column) pair with the resolution confidence."""

    table: str
    column: str
    score: float


def _edit_distance_at_most_one(a: str, b: str) -> bool:
    """True when strings differ by at most one edit (O(n) check)."""
    if a == b:
        return True
    if abs(len(a) - len(b)) > 1:
        return False
    if len(a) > len(b):
        a, b = b, a
    # a is shorter or equal; scan for the single divergence.
    i = j = 0
    edited = False
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            i += 1
            j += 1
            continue
        if edited:
            return False
        edited = True
        if len(a) == len(b):
            i += 1  # substitution
        j += 1      # (or insertion into b)
    return True


def rank_bindings(candidates: Sequence[ColumnBinding],
                  prefer_tables: Sequence[str] = ()) -> List[ColumnBinding]:
    """*candidates* best first, each in a *prefer_tables* table scored
    :data:`PREFER_BONUS` higher."""
    ranked = [
        ColumnBinding(c.table, c.column, c.score + PREFER_BONUS)
        if c.table in prefer_tables else c
        for c in candidates
    ]
    ranked.sort(key=lambda c: (-c.score, c.table, c.column))
    return ranked


@dataclass(frozen=True)
class ValueHit:
    """An entity mention bound to the column containing it."""

    table: str
    column: str
    value: str
    mention: str


@dataclass(frozen=True)
class QuestionFrame:
    """One question's analysis against one catalog (a frozen value).

    Built once per question by :meth:`SchemaCatalog.frame`: the
    :class:`IntentFrame`, the value hits, and the first metric term
    that binds a column with its candidates ranked without preference.
    The router classifies from it and synthesis binds from it, so
    neither analyses the question again.
    """

    intent: IntentFrame
    value_hits: Tuple[ValueHit, ...] = ()
    metric_term: Optional[str] = None
    metric_candidates: Tuple[ColumnBinding, ...] = ()

    @property
    def question(self) -> str:
        """The analysed question."""
        return self.intent.question

    def metric_bindings(self, prefer_tables: Sequence[str] = ()
                        ) -> List[ColumnBinding]:
        """The metric term's bindings, best first, under a preference
        — ``resolve_column(metric_term, prefer_tables)``."""
        return rank_bindings(self.metric_candidates, prefer_tables)


class SchemaCatalog:
    """Synthesis-time view of a database schema."""

    def __init__(self, db: Database):
        self._db = db
        self._synonyms: Dict[str, List[Tuple[str, str]]] = {}
        self._fk_edges: Dict[str, List[Tuple[str, str, str]]] = {}
        # fk_edges[table] = [(other_table, my_col, other_col)]
        self._value_index: List[Tuple[str, str, str]] = []
        # (lowered value, table, column) — sorted longest value first
        self._value_ranks: Dict[str, List[int]] = {}
        # a value's leading alphanumeric run -> its value_index ranks
        self._always_try: List[int] = []
        # ranks of values that do not start alphanumeric
        self._column_table: _ColumnTable = []
        self._column_table_key: List[Tuple[str, TableSchema]] = []
        # the (table name, schema) list the column table was built from
        self._display_columns: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_synonym(self, term: str, table: str, column: str) -> None:
        """Declare that NL *term* means *table.column*."""
        self._db.table(table).schema.index_of(column)
        self._synonyms.setdefault(stem(term.lower()), []).append(
            (table, column)
        )

    def register_join(self, table_a: str, column_a: str,
                      table_b: str, column_b: str) -> None:
        """Declare a joinable key pair between two tables."""
        self._db.table(table_a).schema.index_of(column_a)
        self._db.table(table_b).schema.index_of(column_b)
        self._fk_edges.setdefault(table_a, []).append(
            (table_b, column_a, column_b)
        )
        self._fk_edges.setdefault(table_b, []).append(
            (table_a, column_b, column_a)
        )

    def register_display_column(self, table: str, column: str) -> None:
        """Column shown when a question asks to "list <table>"."""
        self._db.table(table).schema.index_of(column)
        self._display_columns[table] = column

    def build_value_index(self, max_values_per_column: int = 5000) -> None:
        """Index distinct TEXT values for value-based schema linking."""
        entries: List[Tuple[str, str, str]] = []
        for table_name in self._db.table_names():
            table = self._db.table(table_name)
            for column in table.schema.columns:
                if column.dtype is not DataType.TEXT:
                    continue
                seen: Set[str] = set()
                for value in table.column_values(column.name):
                    if value is None:
                        continue
                    low = str(value).strip().lower()
                    if len(low) < 2 or low in seen:
                        continue
                    seen.add(low)
                    entries.append((low, table_name, column.name))
                    if len(seen) >= max_values_per_column:
                        break
        entries.sort(key=lambda e: (-len(e[0]), e[0]))
        self._value_index = entries
        # A hit needs a non-alphanumeric character (or the start) before
        # it, so it can only start where a run of the question starts —
        # a run equal to the value's leading run. find_values tries only
        # the values one of the question's runs names.
        self._value_ranks = {}
        self._always_try = []
        for rank, (value, _table, _column) in enumerate(entries):
            run = _RUN.match(value)
            if run is None:
                self._always_try.append(rank)
            else:
                self._value_ranks.setdefault(run.group(), []).append(rank)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def tables(self) -> List[str]:
        """All table names."""
        return self._db.table_names()

    def display_column(self, table: str) -> str:
        """The column naming a row: registered, else a name-like TEXT
        column ("name"/"subject"/...), else the first TEXT column."""
        if table in self._display_columns:
            return self._display_columns[table]
        schema = self._db.table(table).schema
        for preferred in ("name", "subject", "title", "label"):
            if schema.has_column(preferred) and \
                    schema.column(preferred).dtype is DataType.TEXT:
                return preferred
        for column in schema.columns:
            if column.dtype is DataType.TEXT:
                return column.name
        return schema.columns[0].name

    def frame(self, question: str) -> QuestionFrame:
        """Analyse *question* once against this catalog."""
        intent = analyze(question)
        value_hits = tuple(self.find_values(question))
        for term in intent.metric_terms:
            candidates = self.resolve_column(term)
            if candidates:
                return QuestionFrame(intent, value_hits, term,
                                     tuple(candidates))
        return QuestionFrame(intent, value_hits)

    def resolve_column(self, term: str,
                       prefer_tables: Sequence[str] = ()) -> List[ColumnBinding]:
        """Candidate bindings for NL *term*, best first.

        Scoring: exact column-name match 1.0, synonym 0.9, stem match
        0.8, token-overlap 0.5×fraction; :func:`rank_bindings` adds
        :data:`PREFER_BONUS` for a table in *prefer_tables*.
        """
        term_low = term.strip().lower()
        term_stem = stem(term_low)
        term_tokens = set(content_stems(term_low))
        candidates: List[ColumnBinding] = []
        for table_name, table_stem, columns in self._columns():
            for name, name_stem, name_tokens in columns:
                score = 0.0
                if name == term_low:
                    score = 1.0
                elif name_stem == term_stem:
                    score = 0.8
                elif name_tokens and term_tokens:
                    overlap = len(name_tokens & term_tokens) / len(
                        name_tokens | term_tokens
                    )
                    if overlap > 0:
                        score = 0.5 * overlap
                if score > 0:
                    candidates.append(
                        ColumnBinding(table_name, name, score)
                    )
            # Table-name-as-metric: "total sales" over a table named
            # `sales` with one obvious numeric measure column.
            if table_name == term_low or table_stem == term_stem:
                measure = self._single_measure_column(table_name)
                if measure is not None:
                    candidates.append(
                        ColumnBinding(table_name, measure, 0.7)
                    )
        for table_name, column in self._synonyms.get(term_stem, []):
            candidates.append(ColumnBinding(table_name, column, 0.9))
        return rank_bindings(candidates, prefer_tables)

    def _columns(self) -> _ColumnTable:
        """The column table, rebuilt when the database's tables changed.

        Keyed by the ``(table name, schema)`` list: schemas are
        immutable, so a table created or dropped — through SQL or
        :meth:`Database.create_table` — changes the key.
        """
        db = self._db
        key = [(name, db.table(name).schema) for name in db.table_names()]
        if key != self._column_table_key:
            self._column_table = [
                (name, stem(name), [
                    (column.name, stem(column.name),
                     frozenset(stem(p) for p in column.name.split("_")
                               if p))
                    for column in schema.columns
                ])
                for name, schema in key
            ]
            self._column_table_key = key
        return self._column_table

    def _single_measure_column(self, table_name: str) -> Optional[str]:
        schema = self._db.table(table_name).schema
        numeric = [
            c.name for c in schema.columns
            if c.dtype in (DataType.FLOAT, DataType.INT)
            and c.name != schema.primary_key
            and not c.name.endswith("id")
        ]
        return numeric[0] if len(numeric) == 1 else None

    def find_values(self, question: str) -> List[ValueHit]:
        """Entity mentions in *question* bound via the value index.

        Longest indexed values match first and claim their span, so
        "alpha widget" wins over a hypothetical "widget" value. Only
        the values whose leading run is one of the question's runs
        are tried, in index order.
        """
        low = question.lower()
        taken = [False] * len(low)
        claimed: List[str] = []
        hits: List[ValueHit] = []
        ranks = list(self._always_try)
        value_ranks = self._value_ranks
        for run in set(_RUN.findall(low)):
            ranks.extend(value_ranks.get(run, ()))
        ranks.sort()
        index = self._value_index
        for rank in ranks:
            value, table, column = index[rank]
            if value in claimed:
                # Same value indexed in another table/column: report the
                # alternative binding too so the synthesizer can pick
                # the one reachable from its base table.
                hits.append(ValueHit(table, column, value, value))
                continue
            start = low.find(value)
            while start != -1:
                end = start + len(value)
                boundary_ok = (
                    (start == 0 or not low[start - 1].isalnum())
                    and (end == len(low) or not low[end].isalnum())
                )
                if boundary_ok and not any(taken[start:end]):
                    for i in range(start, end):
                        taken[i] = True
                    claimed.append(value)
                    hits.append(ValueHit(table, column, value,
                                         low[start:end]))
                    break
                start = low.find(value, start + 1)
        hits.sort(key=lambda h: (h.value, h.table, h.column))
        if hits:
            return hits
        return self._find_values_fuzzy(low)

    def _find_values_fuzzy(self, low: str) -> List[ValueHit]:
        """Typo-tolerant fallback: indexed values within edit distance 1
        of a question substring ("Alpa Widget" → "alpha widget").

        Only long values (≥ 6 chars) participate — short strings match
        too promiscuously at distance 1.
        """
        hits: List[ValueHit] = []
        for value, table, column in self._value_index:
            if len(value) < 6:
                continue
            window = len(value)
            found = False
            for delta in (0, -1, 1):
                size = window + delta
                if size < 1:
                    continue
                for start in range(0, max(1, len(low) - size + 1)):
                    candidate = low[start:start + size]
                    if _edit_distance_at_most_one(candidate, value):
                        found = True
                        break
                if found:
                    break
            if found:
                hits.append(ValueHit(table, column, value, value))
        hits.sort(key=lambda h: (h.value, h.table, h.column))
        return hits

    def join_path(self, source: str, target: str) -> List[JoinSpec]:
        """Shortest FK join chain from *source* to *target*.

        Raises :class:`SynthesisError` when no path exists.
        """
        if source == target:
            return []
        parents: Dict[str, Tuple[str, str, str]] = {}
        queue: deque = deque([source])
        seen = {source}
        while queue:
            current = queue.popleft()
            for other, my_col, other_col in self._fk_edges.get(current, []):
                if other in seen:
                    continue
                seen.add(other)
                parents[other] = (current, my_col, other_col)
                if other == target:
                    queue.clear()
                    break
                queue.append(other)
        if target not in parents:
            raise SynthesisError(
                "no join path from %r to %r" % (source, target)
            )
        # Walk back from target to source.
        chain: List[JoinSpec] = []
        node = target
        while node != source:
            prev, prev_col, node_col = parents[node]
            chain.append(JoinSpec(node, prev_col, node_col))
            node = prev
        chain.reverse()
        return chain
