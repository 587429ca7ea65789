"""Sharded multi-node serving (``docs/cluster.md``).

A :class:`ShardedBackend` puts N ordinary ``repro serve`` shard servers
behind the one serving front end
(:class:`~repro.serving.service.SkylineService`): datasets place across
shards via a :class:`ShardMap` (whole-dataset or partitioner-keyed with
the paper's schemes as shard functions), queries fan out as
filter-pruned ``shard_query`` legs and merge exactly through the kernel
seam, writes route to the owning shard and advance per-shard generation
vectors, and shard loss degrades to a partial answer instead of failing.
:class:`LocalCluster` boots the whole topology in-process over real
loopback sockets for tests and ``repro serve --cluster N``.
"""

from typing import Any

from repro._lazy import lazy_export

# Public names by home module, imported on first use (PEP 562).
_EXPORTS = {
    "repro.serving.cluster.coordinator": (
        "ClusterUnavailableError",
        "ShardEndpoint",
        "ShardLostError",
        "ShardedBackend",
    ),
    "repro.serving.cluster.local": ("LocalCluster",),
    "repro.serving.cluster.merge": ("merge_candidates",),
    "repro.serving.cluster.shards": ("SHARD_FUNCTIONS", "DatasetPlacement", "ShardMap"),
}


def __getattr__(name: str) -> Any:
    return lazy_export(__name__, _EXPORTS, name)


__all__ = [
    "SHARD_FUNCTIONS",
    "ClusterUnavailableError",
    "DatasetPlacement",
    "LocalCluster",
    "ShardEndpoint",
    "ShardLostError",
    "ShardMap",
    "ShardedBackend",
    "merge_candidates",
]
