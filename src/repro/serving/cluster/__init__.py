"""Sharded multi-node serving (``docs/cluster.md``).

A :class:`ClusterCoordinator` fronts N ordinary ``repro serve`` shard
servers: datasets place across shards via a :class:`ShardMap` (whole-
dataset or partitioner-keyed with the paper's schemes as shard
functions), queries fan out as filter-pruned ``shard_query`` legs and
merge exactly through the kernel seam, writes route to the owning shard
and advance per-shard generation vectors, and shard loss degrades to a
partial answer instead of failing.  :class:`LocalCluster` boots the whole
topology in-process over real loopback sockets for tests and
``repro serve --cluster N``.
"""

from typing import Any

from repro._lazy import lazy_export

# Public names by home module, imported on first use (PEP 562).
_EXPORTS = {
    "repro.serving.cluster.coordinator": (
        "ClusterConfig",
        "ClusterCoordinator",
        "ClusterResponse",
        "ClusterUnavailableError",
        "ShardEndpoint",
        "ShardLostError",
    ),
    "repro.serving.cluster.local": ("LocalCluster",),
    "repro.serving.cluster.merge": ("merge_candidates",),
    "repro.serving.cluster.protocol": ("handle_cluster_request",),
    "repro.serving.cluster.shards": ("SHARD_FUNCTIONS", "DatasetPlacement", "ShardMap"),
}


def __getattr__(name: str) -> Any:
    return lazy_export(__name__, _EXPORTS, name)


__all__ = [
    "SHARD_FUNCTIONS",
    "ClusterConfig",
    "ClusterCoordinator",
    "ClusterResponse",
    "ClusterUnavailableError",
    "DatasetPlacement",
    "LocalCluster",
    "ShardEndpoint",
    "ShardLostError",
    "ShardMap",
    "handle_cluster_request",
    "merge_candidates",
]
