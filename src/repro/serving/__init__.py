"""Online skyline query serving — the §II scenario made long-running.

The paper motivates MapReduce skyline processing with interactive
QoS-based service selection over a live UDDI registry.  The batch engine
(:mod:`repro.core.mr_skyline`) answers one query per pipeline run; this
package keeps the per-partition skyline state *resident* and serves many
concurrent queries against it:

* :class:`~repro.serving.store.SkylineStore` — one
  :class:`~repro.core.incremental.IncrementalSkyline` per registered
  dataset behind a generation counter; mutations touch one partition and
  bump the generation.  A bulk load recomputes each touched partition's
  local skyline in one vectorised pass.
* :class:`~repro.serving.cache.ResultCache` — versioned result cache
  keyed ``(dataset, kind, params, generation)``; mutation invalidates by
  construction, and stale generations back the degraded answer path.
* :class:`~repro.serving.service.SkylineService` — the one request plane
  of both serving modes: admission control with bounded queueing and load
  shedding, request coalescing (identical in-flight queries share one
  computation), per-query deadlines, four query kinds (skyline,
  k-skyband, constrained, subspace), full serve-path observability — over
  a :class:`~repro.serving.service.LocalBackend` (stores in this process)
  or a sharded backend.
* :mod:`~repro.serving.protocol` / :mod:`~repro.serving.server` /
  :mod:`~repro.serving.client` — the ``repro serve`` JSON-lines front end
  (stdio or TCP) and the client helper used by tests and CI; the
  read-only ``stats`` / ``health`` / ``slo`` / ``events`` / ``metrics``
  verbs are the live telemetry plane.
* :mod:`~repro.serving.top` — the ``repro top`` terminal dashboard that
  polls those verbs against a running server.
* :mod:`~repro.serving.cluster` — sharded multi-node serving: a
  :class:`~repro.serving.cluster.coordinator.ShardedBackend` fans queries
  out to shard servers with broadcast filter points, merges candidate sets
  exactly, and degrades (never fails) on shard loss.
  ``repro serve --cluster N`` / ``repro coordinator``.

See ``docs/serving.md``, ``docs/cluster.md`` and ``docs/observability.md``.
"""

from typing import Any

from repro._lazy import lazy_export

# Public names by home module, imported on first use (PEP 562).
_EXPORTS = {
    "repro.serving.cache": ("ResultCache",),
    "repro.serving.client": ("ServingClient", "ServingConnectionError"),
    "repro.serving.cluster": (
        "ClusterUnavailableError",
        "LocalCluster",
        "ShardLostError",
        "ShardMap",
        "ShardedBackend",
    ),
    "repro.serving.queries": (
        "QUERY_KINDS",
        "QuerySpec",
        "candidate_prune_mask",
        "evaluate",
    ),
    "repro.serving.service": (
        "LocalBackend",
        "QueryResponse",
        "ServeConfig",
        "ServiceOverloadedError",
        "ServiceUnavailableError",
        "SkylineService",
        "UnknownDatasetError",
    ),
    "repro.serving.store": ("SkylineStore", "StoreSnapshot"),
    "repro.serving.top": ("render_frame", "run_top"),
}


def __getattr__(name: str) -> Any:
    return lazy_export(__name__, _EXPORTS, name)


__all__ = [
    "QUERY_KINDS",
    "ClusterUnavailableError",
    "LocalBackend",
    "LocalCluster",
    "QueryResponse",
    "QuerySpec",
    "ResultCache",
    "ServeConfig",
    "ServiceOverloadedError",
    "ServiceUnavailableError",
    "ServingClient",
    "ServingConnectionError",
    "ShardLostError",
    "ShardMap",
    "ShardedBackend",
    "SkylineService",
    "SkylineStore",
    "StoreSnapshot",
    "UnknownDatasetError",
    "candidate_prune_mask",
    "evaluate",
    "render_frame",
    "run_top",
]
