"""In-memory heap table with index maintenance.

Rows are immutable tuples stored in a dict keyed by row id, so deletes
do not shift ids and indexes stay valid. The table enforces its schema
and primary-key uniqueness on every write.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from ...errors import StorageError
from ...metering import ROWS_SCANNED, CostMeter, GLOBAL_METER
from .index import HashIndex, make_index
from .schema import TableSchema


class Table:
    """A heap of schema-validated rows with optional secondary indexes."""

    def __init__(self, schema: TableSchema,
                 meter: Optional[CostMeter] = None):
        self.schema = schema
        self._rows: Dict[int, Tuple[Any, ...]] = {}
        self._next_id = 0
        self._indexes: Dict[str, Any] = {}
        self._meter = meter if meter is not None else GLOBAL_METER
        if schema.primary_key is not None:
            self.create_index(schema.primary_key, kind="hash")

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def insert(self, row: Sequence[Any], coerce: bool = False) -> int:
        """Insert one row; returns its row id.

        Raises :class:`SchemaError` on type mismatch and
        :class:`StorageError` on primary-key violation.
        """
        if coerce:
            validated = self.schema.coerce_row(row)
        else:
            validated = self.schema.validate_row(row)
        pk = self.schema.primary_key
        if pk is not None:
            pk_value = validated[self.schema.index_of(pk)]
            if pk_value is None:
                raise StorageError("primary key %r cannot be NULL" % pk)
            if self._indexes[pk].lookup(pk_value):
                raise StorageError(
                    "duplicate primary key %r in table %r"
                    % (pk_value, self.schema.name)
                )
        row_id = self._next_id
        self._next_id += 1
        self._rows[row_id] = validated
        for column, index in self._indexes.items():
            index.insert(validated[self.schema.index_of(column)], row_id)
        return row_id

    def insert_dict(self, record: Dict[str, Any], coerce: bool = False) -> int:
        """Insert from a column→value mapping (missing columns NULL)."""
        return self.insert(
            self.schema.row_from_dict(record, coerce_values=coerce)
        )

    def update(self, row_id: int, row: Sequence[Any],
               coerce: bool = False) -> None:
        """Replace the row at *row_id* in place, maintaining indexes.

        Primary-key changes are validated against uniqueness (the row's
        own old value does not conflict with itself).
        """
        old = self._rows.get(row_id)
        if old is None:
            raise StorageError("no row %d in %r" % (row_id, self.schema.name))
        if coerce:
            validated = self.schema.coerce_row(row)
        else:
            validated = self.schema.validate_row(row)
        pk = self.schema.primary_key
        if pk is not None:
            pk_pos = self.schema.index_of(pk)
            new_pk = validated[pk_pos]
            if new_pk is None:
                raise StorageError("primary key %r cannot be NULL" % pk)
            if new_pk != old[pk_pos] and self._indexes[pk].lookup(new_pk):
                raise StorageError(
                    "duplicate primary key %r in table %r"
                    % (new_pk, self.schema.name)
                )
        for column, index in self._indexes.items():
            pos = self.schema.index_of(column)
            index.remove(old[pos], row_id)
            index.insert(validated[pos], row_id)
        self._rows[row_id] = validated

    def delete(self, row_id: int) -> None:
        """Delete the row with *row_id* (StorageError if absent)."""
        row = self._rows.pop(row_id, None)
        if row is None:
            raise StorageError("no row %d in %r" % (row_id, self.schema.name))
        for column, index in self._indexes.items():
            index.remove(row[self.schema.index_of(column)], row_id)

    # ------------------------------------------------------------------
    # Indexes
    # ------------------------------------------------------------------
    def create_index(self, column: str, kind: str = "hash") -> None:
        """Build an index over *column*, backfilling existing rows."""
        column = column.lower()
        self.schema.index_of(column)  # raises if unknown
        if column in self._indexes and kind == "hash" and isinstance(
            self._indexes[column], HashIndex
        ):
            return
        index = make_index(kind, column)
        pos = self.schema.index_of(column)
        for row_id, row in self._rows.items():
            index.insert(row[pos], row_id)
        self._indexes[column] = index

    def index_on(self, column: str):
        """The index object for *column*, or None."""
        return self._indexes.get(column.lower())

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, row_id: int) -> Tuple[Any, ...]:
        """Fetch one row by id."""
        try:
            return self._rows[row_id]
        except KeyError:
            raise StorageError(
                "no row %d in %r" % (row_id, self.schema.name)
            ) from None

    def scan(self) -> Iterator[Tuple[int, Tuple[Any, ...]]]:
        """Yield (row_id, row) in id order, charging ``rows_scanned``.

        The rows a scan examined are charged as one lump when it ends,
        however it ends (exhausted, abandoned or failed in the consumer).
        """
        rows = self._rows
        examined = 0
        try:
            for row_id in sorted(rows):
                examined += 1
                yield row_id, rows[row_id]
        finally:
            self._meter.charge(ROWS_SCANNED, examined)

    def scan_matching(
        self, test: Callable[[Tuple[Any, ...]], bool],
        equals: Optional[Iterable[Tuple[str, Any]]] = None,
    ) -> Iterator[Tuple[int, Tuple[Any, ...]]]:
        """Filtered scan: (row_id, row) pairs where ``test(row)`` holds.

        *equals* is a pushdown hint — (column, value) equality conjuncts
        known to hold for every matching row. The heap table ignores it
        (same rows, order and charges as scan-then-filter); partitioned
        facades use it to prune which shards to scan.
        """
        for row_id, row in self.scan():
            if test(row):
                yield row_id, row

    def rows(self) -> List[Tuple[Any, ...]]:
        """All rows in id order (charges ``rows_scanned``)."""
        return [row for _, row in self.scan()]

    def lookup(self, column: str, value: Any) -> List[Tuple[Any, ...]]:
        """Equality lookup, via index when available, else a scan."""
        column = column.lower()
        index = self._indexes.get(column)
        if isinstance(index, HashIndex):
            return [self._rows[rid] for rid in index.lookup(value)]
        pos = self.schema.index_of(column)
        return [row for _, row in self.scan() if row[pos] == value]

    def column_values(self, column: str) -> List[Any]:
        """Every value of *column* in row-id order."""
        pos = self.schema.index_of(column)
        return [row[pos] for _, row in self.scan()]

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        return "Table(%s, %d rows)" % (self.schema.name, len(self))

    def clone(self) -> "Table":
        """Deep-copy this table (rows and indexes) for snapshots."""
        from .index import HashIndex as _Hash
        from .index import make_index

        twin = Table.__new__(Table)
        twin.schema = self.schema
        twin._rows = dict(self._rows)
        twin._next_id = self._next_id
        twin._meter = self._meter
        twin._indexes = {}
        for column, index in self._indexes.items():
            kind = "hash" if isinstance(index, _Hash) else "sorted"
            new_index = make_index(kind, column)
            pos = self.schema.index_of(column)
            for row_id, row in twin._rows.items():
                new_index.insert(row[pos], row_id)
            twin._indexes[column] = new_index
        return twin

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Rows as column→value dicts (handy for tests and JSON)."""
        names = self.schema.column_names()
        return [dict(zip(names, row)) for _, row in self.scan()]
