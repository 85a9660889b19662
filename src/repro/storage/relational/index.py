"""Secondary hash indexes.

An index maps one column's values to row ids within one table. The
planner turns an equality predicate on an indexed column into a probe;
maintenance happens on insert/update/delete through the owning
:class:`~.table.Table`.
"""

from __future__ import annotations

from typing import Any, Dict, List


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
