"""repro.sharding — entity-keyed sharded storage with pushdown federation.

Partitions the relational, document and text stores by a deterministic,
seeded entity-key hash and executes reads as scatter-gather over
per-shard children, each call under its own ``shard:<i>`` resilience
guard. Predicate pushdown prunes single-entity queries to the owning
shard; merges are deterministic (canonical row keys, never arrival
order) so sharded answers are byte-identical to unsharded ones.

Layering: sharding may depend on storage, resilience and obs; only the
qa and serving layers may depend on sharding.
"""

from .relational import KIND_RELATIONAL, ShardedTable
from .router import ShardRouter
from .shardset import (
    ShardSet, ShardStats, shard_of_chunk, shard_of_doc,
)
from .stamp import ShardStamp
from .stores import KIND_DOCUMENT, KIND_TEXT, ShardedDocumentStore, ShardedTextStore

__all__ = [
    "KIND_DOCUMENT",
    "KIND_RELATIONAL",
    "KIND_TEXT",
    "ShardRouter",
    "ShardSet",
    "ShardStamp",
    "ShardStats",
    "ShardedDocumentStore",
    "ShardedTable",
    "ShardedTextStore",
    "shard_of_chunk",
    "shard_of_doc",
]
