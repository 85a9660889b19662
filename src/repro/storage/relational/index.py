"""Secondary indexes: hash (equality) and sorted (range).

Indexes map column values to row ids within one table. The executor
consults them for point and range predicates; maintenance happens on
insert/delete through the owning :class:`~.table.Table`.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Tuple

from ...errors import StorageError
from ..types import sort_key


class HashIndex:
    """Equality index: value → set of row ids."""

    def __init__(self, column: str):
        self.column = column
        self._buckets: Dict[Any, set] = {}

    def insert(self, value: Any, row_id: int) -> None:
        """Register *row_id* under *value*."""
        self._buckets.setdefault(value, set()).add(row_id)

    def remove(self, value: Any, row_id: int) -> None:
        """Unregister *row_id*; silently ignores unknown pairs."""
        bucket = self._buckets.get(value)
        if bucket is not None:
            bucket.discard(row_id)
            if not bucket:
                del self._buckets[value]

    def lookup(self, value: Any) -> List[int]:
        """Row ids whose column equals *value* (sorted for determinism)."""
        return sorted(self._buckets.get(value, ()))

    def __len__(self) -> int:
        return sum(len(b) for b in self._buckets.values())


class SortedIndex:
    """Order-preserving index supporting range scans.

    Keeps parallel sorted lists of (sort_key(value), value, row_id).
    NULL values are excluded — SQL range predicates never match NULL.
    """

    def __init__(self, column: str):
        self.column = column
        self._keys: List[tuple] = []
        self._entries: List[Tuple[Any, int]] = []

    def insert(self, value: Any, row_id: int) -> None:
        """Insert one (value, row_id) pair, keeping sort order."""
        if value is None:
            return
        key = (sort_key(value), row_id)
        pos = bisect.bisect_left(self._keys, key)
        self._keys.insert(pos, key)
        self._entries.insert(pos, (value, row_id))

    def remove(self, value: Any, row_id: int) -> None:
        """Remove one pair; ignores pairs never inserted."""
        if value is None:
            return
        key = (sort_key(value), row_id)
        pos = bisect.bisect_left(self._keys, key)
        if pos < len(self._keys) and self._keys[pos] == key:
            del self._keys[pos]
            del self._entries[pos]

    def range(self, low: Any = None, high: Any = None,
              include_low: bool = True,
              include_high: bool = True) -> List[int]:
        """Row ids with low ≤ value ≤ high (bounds optional).

        Either bound may be ``None`` for an open interval.
        """
        if low is None:
            lo_pos = 0
        else:
            lo_key = (sort_key(low), -1 if include_low else float("inf"))
            if include_low:
                lo_pos = bisect.bisect_left(self._keys, (sort_key(low),))
            else:
                lo_pos = bisect.bisect_right(
                    self._keys, (sort_key(low), float("inf"))
                )
        if high is None:
            hi_pos = len(self._keys)
        else:
            if include_high:
                hi_pos = bisect.bisect_right(
                    self._keys, (sort_key(high), float("inf"))
                )
            else:
                hi_pos = bisect.bisect_left(self._keys, (sort_key(high),))
        return [row_id for _, row_id in self._entries[lo_pos:hi_pos]]

    def __len__(self) -> int:
        return len(self._entries)


INDEX_KINDS = {"hash": HashIndex, "sorted": SortedIndex}


def make_index(kind: str, column: str):
    """Factory for index objects by kind name ('hash' or 'sorted')."""
    try:
        return INDEX_KINDS[kind](column)
    except KeyError:
        raise StorageError("unknown index kind %r" % kind) from None
