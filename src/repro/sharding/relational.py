"""Entity-keyed sharded relational table facade.

:class:`ShardedTable` is a drop-in :class:`~repro.storage.relational.table.Table`
that partitions its rows over per-shard child tables by a deterministic
hash of the shard-key column (:class:`~.router.ShardRouter`). The facade
keeps the *global* row-id space and the *global* indexes (primary-key
uniqueness is a cross-shard invariant), while every read or write of
shard-resident data runs under that shard's ``shard:<i>`` resilience
guard via the owning :class:`~.shardset.ShardSet`.

Byte-equivalence contract
-------------------------
Sharded execution must be indistinguishable from unsharded execution on
the answer bytes, which pins three behaviours:

* **Merge order** — scatter reads merge by global row id (the canonical
  row key), never by shard arrival order.
* **Work clock** — the unsharded path charges ``rows_scanned`` for every
  row a scan touches, and degraded answers embed the work clock in their
  metadata. A pruned scan therefore charges the *skipped* shards' row
  counts in one lump: the clock is a semantic contract, not a profiler.
* **Error text** — primary-key and missing-row errors reproduce the base
  table's messages exactly.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import StorageError
from ..metering import ROWS_SCANNED
from ..storage.relational.index import HashIndex, make_index
from ..storage.relational.schema import TableSchema
from ..storage.relational.table import Table
from .shardset import ShardSet

#: The serving-layer store kind this facade reports writes/touches under.
KIND_RELATIONAL = "relational"


class ShardedTable(Table):
    """A :class:`Table` partitioned over per-shard children.

    The facade's own ``_rows`` dict stays empty — rows live in the
    children — but its ``_indexes`` are global, mapping values to global
    row ids exactly like the unsharded table's, so the planner sees the
    same index surface (``index_on``) in both modes.
    """

    def __init__(self, schema: TableSchema, shard_set: ShardSet,
                 meter=None, key_column: Optional[str] = None):
        # Placeholders first: base __init__ builds the PK index through
        # our create_index override, which iterates the children.
        self._children: List[Table] = []
        self._owner: Dict[int, int] = {}
        self._shard_set = shard_set
        super().__init__(schema, meter=meter)
        self._children = [
            Table(schema, meter=self._meter)
            for _ in range(shard_set.n_shards)
        ]
        key = key_column or schema.primary_key or schema.column_names()[0]
        self._key_column = key.lower()
        self._key_pos = schema.index_of(self._key_column)

    # ------------------------------------------------------------------
    # Shard-map surface
    # ------------------------------------------------------------------
    @property
    def shard_key(self) -> str:
        """The column whose value decides a row's shard."""
        return self._key_column

    @property
    def n_shards(self) -> int:
        """How many shards this table partitions over."""
        return len(self._children)

    def shard_sizes(self) -> List[int]:
        """Per-shard row counts (for the committed shard map and tests)."""
        return [len(child._rows) for child in self._children]

    def set_shard_key(self, column: str) -> None:
        """Re-key the table on *column*, rebalancing rows across shards.

        Global row ids are preserved — only ownership moves. Charge-free:
        re-keying is a build-time admin operation with no unsharded
        counterpart, so it must not move the work clock.
        """
        column = column.lower()
        pos = self.schema.index_of(column)
        if column == self._key_column:
            return
        self._key_column = column
        self._key_pos = pos
        rows: Dict[int, Tuple[Any, ...]] = {}
        for child in self._children:
            rows.update(child._rows)
        self._children = [
            Table(self.schema, meter=self._meter)
            for _ in range(self._shard_set.n_shards)
        ]
        self._owner = {}
        router = self._shard_set.router
        for row_id in sorted(rows):
            row = rows[row_id]
            owner = router.shard_of(row[pos])
            child = self._children[owner]
            child._next_id = row_id
            child.insert(row)
            self._owner[row_id] = owner

    def _owner_of_row(self, row: Sequence[Any]) -> int:
        return self._shard_set.router.shard_of(row[self._key_pos])

    # ------------------------------------------------------------------
    # Writes (facade invariants first, then guarded shard placement)
    # ------------------------------------------------------------------
    def insert(self, row: Sequence[Any], coerce: bool = False) -> int:
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
        owner = self._owner_of_row(validated)
        self._place(owner, row_id, validated)
        # Commit facade state only after the guarded placement succeeds.
        self._next_id = row_id + 1
        for column, index in self._indexes.items():
            index.insert(validated[self.schema.index_of(column)], row_id)
        self._owner[row_id] = owner
        self._shard_set.note_write(KIND_RELATIONAL, owner)
        return row_id

    def _place(self, owner: int, row_id: int,
               validated: Tuple[Any, ...]) -> None:
        child = self._children[owner]

        def put() -> None:
            child._next_id = row_id
            child.insert(validated)

        self._shard_set.guarded(owner, "insert", put)

    def update(self, row_id: int, row: Sequence[Any],
               coerce: bool = False) -> None:
        owner = self._owner.get(row_id)
        if owner is None:
            raise StorageError("no row %d in %r" % (row_id, self.schema.name))
        old = self._children[owner]._rows[row_id]
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
        new_owner = self._owner_of_row(validated)
        if new_owner == owner:
            self._shard_set.guarded(
                owner, "update",
                lambda: self._children[owner].update(row_id, validated),
            )
        else:
            # Cross-shard migration: one guarded call on the new owner
            # performs the whole move, so an injected fault leaves both
            # shards untouched rather than duplicating the row.
            def migrate() -> None:
                self._children[owner].delete(row_id)
                child = self._children[new_owner]
                child._next_id = row_id
                child.insert(validated)

            self._shard_set.guarded(new_owner, "update", migrate)
            self._owner[row_id] = new_owner
        for column, index in self._indexes.items():
            pos = self.schema.index_of(column)
            index.remove(old[pos], row_id)
            index.insert(validated[pos], row_id)
        self._shard_set.note_write(KIND_RELATIONAL, owner)
        if new_owner != owner:
            self._shard_set.note_write(KIND_RELATIONAL, new_owner)

    def delete(self, row_id: int) -> None:
        owner = self._owner.get(row_id)
        if owner is None:
            raise StorageError("no row %d in %r" % (row_id, self.schema.name))
        row = self._children[owner]._rows[row_id]
        self._shard_set.guarded(
            owner, "delete", lambda: self._children[owner].delete(row_id)
        )
        for column, index in self._indexes.items():
            index.remove(row[self.schema.index_of(column)], row_id)
        del self._owner[row_id]
        self._shard_set.note_write(KIND_RELATIONAL, owner)

    # ------------------------------------------------------------------
    # Indexes (global: values map to global row ids)
    # ------------------------------------------------------------------
    def create_index(self, column: str, kind: str = "hash") -> None:
        column = column.lower()
        self.schema.index_of(column)  # raises if unknown
        if column in self._indexes and kind == "hash" and isinstance(
            self._indexes[column], HashIndex
        ):
            return
        index = make_index(kind, column)
        pos = self.schema.index_of(column)
        for child in self._children:
            for row_id, row in child._rows.items():
                index.insert(row[pos], row_id)
        self._indexes[column] = index

    # ------------------------------------------------------------------
    # Reads (guarded scatter-gather, deterministic merge by row id)
    # ------------------------------------------------------------------
    def get(self, row_id: int) -> Tuple[Any, ...]:
        owner = self._owner.get(row_id)
        if owner is None:
            self._shard_set.note_touch(KIND_RELATIONAL, None)
            raise StorageError(
                "no row %d in %r" % (row_id, self.schema.name)
            )
        self._shard_set.note_touch(KIND_RELATIONAL, [owner])
        return self._shard_set.guarded(
            owner, "get", lambda: self._children[owner].get(row_id)
        )

    def scan(self) -> Iterator[Tuple[int, Tuple[Any, ...]]]:
        self._shard_set.note_fanout(KIND_RELATIONAL, len(self._children))
        self._shard_set.note_touch(KIND_RELATIONAL, None)
        merged: List[Tuple[int, Tuple[Any, ...]]] = []
        for index, child in enumerate(self._children):
            merged.extend(self._shard_set.guarded(
                index, "scan", lambda c=child: list(c.scan())
            ))
        merged.sort(key=lambda pair: pair[0])
        for pair in merged:
            yield pair

    def scan_matching(
        self, test: Callable[[Tuple[Any, ...]], bool],
        equals: Optional[Iterable[Tuple[str, Any]]] = None,
    ) -> Iterator[Tuple[int, Tuple[Any, ...]]]:
        """Filtered scan with per-shard predicate pushdown.

        When an equality hint binds the shard key, only the owning shard
        is scanned (the prune fast path); the skipped shards' row counts
        are charged in one lump so the work clock matches the unsharded
        scan byte-for-byte.
        """
        owner = self._prune_owner(equals)
        if owner is None:
            self._shard_set.note_fanout(KIND_RELATIONAL, len(self._children))
            self._shard_set.note_touch(KIND_RELATIONAL, None)
            merged: List[Tuple[int, Tuple[Any, ...]]] = []
            for index, child in enumerate(self._children):
                merged.extend(self._shard_set.guarded(
                    index, "scan",
                    lambda c=child: [p for p in c.scan() if test(p[1])],
                ))
            merged.sort(key=lambda pair: pair[0])
            for pair in merged:
                yield pair
            return
        self._shard_set.note_fanout(KIND_RELATIONAL, 1)
        self._shard_set.note_touch(KIND_RELATIONAL, [owner])
        child = self._children[owner]
        matched = self._shard_set.guarded(
            owner, "scan", lambda: [p for p in child.scan() if test(p[1])]
        )
        skipped = len(self._owner) - len(child._rows)
        if skipped:
            self._meter.charge(ROWS_SCANNED, skipped)
        for pair in matched:
            yield pair

    def _prune_owner(
        self, equals: Optional[Iterable[Tuple[str, Any]]],
    ) -> Optional[int]:
        if equals is None:
            return None
        for column, value in equals:
            if column.lower() == self._key_column:
                return self._shard_set.router.shard_of(value)
        return None

    def lookup(self, column: str, value: Any) -> List[Tuple[Any, ...]]:
        column = column.lower()
        index = self._indexes.get(column)
        if isinstance(index, HashIndex):
            rids = index.lookup(value)
            if column == self._key_column:
                # All hits live on the key's owning shard; touch it even
                # on a miss so a later insert of this key invalidates.
                owner = self._shard_set.router.shard_of(value)
                self._shard_set.note_fanout(KIND_RELATIONAL, 1)
                self._shard_set.note_touch(KIND_RELATIONAL, [owner])
                if not rids:
                    return []
                child = self._children[owner]
                return self._shard_set.guarded(
                    owner, "lookup",
                    lambda: [child._rows[rid] for rid in rids],
                )
            # Non-key column: hits span shards, and a future insert into
            # any shard could match — the dependency is all shards.
            self._shard_set.note_touch(KIND_RELATIONAL, None)
            if not rids:
                return []
            owners = sorted({self._owner[rid] for rid in rids})
            self._shard_set.note_fanout(KIND_RELATIONAL, len(owners))
            fetched: Dict[int, Tuple[Any, ...]] = {}
            for owner in owners:
                child = self._children[owner]
                mine = [rid for rid in rids if self._owner[rid] == owner]
                rows = self._shard_set.guarded(
                    owner, "lookup",
                    lambda c=child, m=mine: [c._rows[rid] for rid in m],
                )
                fetched.update(zip(mine, rows))
            return [fetched[rid] for rid in rids]
        pos = self.schema.index_of(column)
        return [row for _, row in self.scan() if row[pos] == value]

    def __len__(self) -> int:
        return len(self._owner)

    def clone(self) -> "Table":
        twin = ShardedTable.__new__(ShardedTable)
        twin.schema = self.schema
        twin._rows = {}
        twin._next_id = self._next_id
        twin._meter = self._meter
        twin._shard_set = self._shard_set
        twin._key_column = self._key_column
        twin._key_pos = self._key_pos
        twin._children = [child.clone() for child in self._children]
        twin._owner = dict(self._owner)
        twin._indexes = {}
        for column, index in self._indexes.items():
            kind = "hash" if isinstance(index, HashIndex) else "sorted"
            new_index = make_index(kind, column)
            pos = self.schema.index_of(column)
            for child in twin._children:
                for row_id, row in child._rows.items():
                    new_index.insert(row[pos], row_id)
            twin._indexes[column] = new_index
        return twin
