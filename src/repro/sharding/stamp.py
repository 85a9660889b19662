"""Shard-aware generation stamps for the serving caches.

The serving layer tags each cache entry with the generation counters of
its dependency set and drops the entry when the tag no longer matches.
Plan and retrieval tags are plain tuples over a fixed kind order (an
unsharded answer entry carries a write clock and its read set instead,
see :mod:`repro.serving.cache`); sharded answer tags carry a *named*
subset of counters — only the store kinds and shard counters the
answer actually depends on — so a write into one shard invalidates
only the entries that read that shard.

Comparison is intersection-keyed: two stamps agree when every counter
they *both* name has the same value. The cache stores a restricted
stamp (the entry's dependency closure) and compares it against a full
snapshot at lookup time, so the restriction decides sensitivity.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping


class ShardStamp:
    """A named generation-counter snapshot with subset comparison."""

    def __init__(self, counts: Mapping[str, int]):
        self._counts: Dict[str, int] = dict(counts)

    @property
    def counts(self) -> Dict[str, int]:
        """The named counter values (a copy; for stats and tests)."""
        return dict(self._counts)

    def restrict(self, kinds: Iterable[str]) -> "ShardStamp":
        """A stamp naming only *kinds* (missing kinds are skipped)."""
        return ShardStamp({
            kind: self._counts[kind]
            for kind in kinds if kind in self._counts
        })

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, ShardStamp):
            theirs: Mapping[str, int] = other._counts
        elif isinstance(other, dict):
            theirs = other
        else:
            return NotImplemented
        shared = self._counts.keys() & theirs.keys()
        return all(self._counts[kind] == theirs[kind] for kind in shared)

    def __ne__(self, other: Any) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        # Subset equality is not hash-compatible; stamps are tags, not
        # keys. Hash on the kind set so dict use fails loudly in tests
        # rather than silently colliding.
        return hash(frozenset(self._counts))

    def __repr__(self) -> str:
        inner = ", ".join(
            "%s=%d" % (kind, self._counts[kind])
            for kind in sorted(self._counts)
        )
        return "ShardStamp(%s)" % inner
