"""Per-layer metrics of the traced run, derived from spans and counters.

Every time metric is a median per operation (one MapReduce job, or one
served request of the open-loop phase) over the operations in which the
layer ran, and has a ``.share`` twin: the median of that layer's time
over the operation's end-to-end time.  Names ending in ``self_s`` are
self times (children excluded); other ``_s`` names are inclusive.  A
layer that did no work on a workload reads 0.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

from perfbench.stats import median
from perfbench.tracing import Span, self_times

#: (name, unit, better) of every per-layer metric, in report order.
TIME_METRICS: Tuple[str, ...] = (
    "partitioning.fit_s", "partitioning.assign_s", "filtering.select_s",
    "kernels.self_s", "mapreduce.map_busy_s", "mapreduce.reduce_busy_s",
    "mapreduce.shuffle_s", "mapreduce.runner_self_s", "mapreduce.reduce_task_s_max",
    "server.handle_s", "server.wire_s", "service.self_s", "cache.get_s",
    "queries.evaluate_s.skyband", "queries.evaluate_s.constrained",
    "queries.evaluate_s.subspace", "store.skyline_snapshot_s", "store.snapshot_s",
    "store.mutation_s", "durability.append_s", "durability.sync_s",
    "durability.checkpoint_s", "durability.replay_s", "cluster.leg_s",
    "cluster.fanout_s", "cluster.merge_s",
)
OTHER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("partitioning.max_min_ratio", "ratio", "lower"),
    ("filtering.pruned_ratio", "ratio", "higher"),
    ("kernels.dominance_tests", "count", "lower"),
    ("mapreduce.shuffle_bytes", "bytes", "lower"),
    ("mapreduce.optimality", "ratio", "higher"),
    ("server.response_bytes", "bytes", "lower"),
    ("service.shed_ratio", "ratio", "lower"),
    ("service.coalesced_ratio", "ratio", "higher"),
    ("service.computes_per_request", "ratio", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.evictions", "count", "lower"),
    ("durability.checkpoints", "count", "lower"),
    ("durability.bytes_per_mutation", "bytes", "lower"),
    ("cluster.candidate_ratio", "ratio", "lower"),
    ("client.send_lag_ms", "ms", "lower"),
)
#: End-to-end numbers the traced pass reports about itself, and their ratio
#: to the untraced pass of the same run (the tracing overhead).
TRACED_E2E: Tuple[Tuple[str, str, str], ...] = (
    ("job_s_p50", "s", "lower"),
    ("latency_ms_p50", "ms", "lower"),
    ("throughput_qps", "1/s", "higher"),
)


def metric_specs() -> List[Tuple[str, str, str]]:
    specs: List[Tuple[str, str, str]] = []
    for name in TIME_METRICS:
        specs.append((name, "s", "lower"))
        specs.append((f"{name}.share", "ratio", "lower"))
    specs.extend(OTHER_METRICS)
    for name, unit, better in TRACED_E2E:
        specs.append((f"traced.{name}", unit, better))
        specs.append((f"overhead.{name}", "ratio", "lower"))
    return specs


def _per_op(values: Mapping[Any, float], totals: Mapping[Any, float],
            name: str, out: Dict[str, float]) -> None:
    """Median per operation (where the layer ran) and median share."""
    ran = [rid for rid, v in values.items() if v > 0 and totals.get(rid, 0) > 0]
    if ran:
        out[name] = median([values[rid] for rid in ran])
        out[f"{name}.share"] = median([values[rid] / totals[rid] for rid in ran])


def _sum_by_rid(spans: Iterable[Span], name: str, *, value: Callable[[Span], float]
                | None = None, where: Callable[[Span], bool] | None = None
                ) -> Dict[Any, float]:
    out: Dict[Any, float] = defaultdict(float)
    for span in spans:
        if span.name == name and span.rid is not None and (where is None or where(span)):
            out[span.rid] += span.duration if value is None else value(span)
    return out


def engine_layers(spans: Sequence[Span], jobs: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Batch layers over MapReduce jobs.

    ``jobs`` carries one dict per traced job: its request id, wall time and
    the engine's own accounting (busy times, counters, partition sizes).
    """
    out: Dict[str, float] = {}
    if not jobs:
        return out
    own = self_times(spans)
    wall = {job["rid"]: job["wall_s"] for job in jobs}
    _per_op(_sum_by_rid(spans, "partitioning.fit"), wall, "partitioning.fit_s", out)
    _per_op(_sum_by_rid(spans, "partitioning.assign"), wall, "partitioning.assign_s", out)
    _per_op(_sum_by_rid(spans, "filtering.select"), wall, "filtering.select_s", out)
    kernels: Dict[Any, float] = defaultdict(float)
    for span in spans:
        if span.name.startswith("kernels.") and span.rid is not None:
            kernels[span.rid] += own[span.sid]
    _per_op(kernels, wall, "kernels.self_s", out)
    _per_op(_sum_by_rid(spans, "mapreduce.run", value=lambda s: own[s.sid]), wall,
            "mapreduce.runner_self_s", out)
    _per_op(_sum_by_rid(spans, "mapreduce.shuffle"), wall, "mapreduce.shuffle_s", out)
    for key in ("map_busy_s", "reduce_busy_s", "reduce_task_s_max"):
        _per_op({job["rid"]: job[key] for job in jobs}, wall, f"mapreduce.{key}", out)
    for key, name in (("max_min_ratio", "partitioning.max_min_ratio"),
                      ("pruned_ratio", "filtering.pruned_ratio"),
                      ("dominance_tests", "kernels.dominance_tests"),
                      ("shuffle_bytes", "mapreduce.shuffle_bytes"),
                      ("optimality", "mapreduce.optimality")):
        out[name] = median([job[key] for job in jobs])
    return out


def serving_layers(
    spans: Sequence[Span],
    latency_s: Mapping[int, float],
    all_latency_s: Mapping[int, float],
    response_bytes: Mapping[int, int],
    counters: Mapping[str, float],
    cache: Mapping[str, float],
    restarts_s: Sequence[float],
) -> Dict[str, float]:
    """Serving layers over the open-loop requests.

    ``latency_s`` is the client-side time of each open-loop request from its
    actual send; only these request ids count, except for checkpoints, which
    are too rare for one phase and are taken over all traffic
    (``all_latency_s``).  ``counters`` and ``cache`` are deltas of the
    server's ``metrics``/``stats`` exports over all traffic.
    """
    out: Dict[str, float] = {}
    _per_op(_sum_by_rid(spans, "durability.checkpoint"), all_latency_s,
            "durability.checkpoint_s", out)
    spans = [s for s in spans if s.rid is None or s.rid in latency_s
             or s.name == "durability.replay"]
    own = self_times(spans)
    handle = _sum_by_rid(spans, "server.handle")
    _per_op(handle, latency_s, "server.handle_s", out)
    _per_op({rid: latency_s[rid] - handle[rid] for rid in handle}, latency_s,
            "server.wire_s", out)
    _per_op(_sum_by_rid(spans, "service.query", value=lambda s: own[s.sid]), latency_s,
            "service.self_s", out)
    _per_op(_sum_by_rid(spans, "cache.get"), latency_s, "cache.get_s", out)
    for kind in ("skyband", "constrained", "subspace"):
        _per_op(_sum_by_rid(spans, "queries.evaluate",
                            where=lambda s, k=kind: (s.attrs or {}).get("kind") == k),
                latency_s, f"queries.evaluate_s.{kind}", out)
    for name in ("skyline_snapshot", "snapshot", "mutation"):
        _per_op(_sum_by_rid(spans, f"store.{name}"), latency_s, f"store.{name}_s", out)
    for name in ("append", "sync"):
        _per_op(_sum_by_rid(spans, f"durability.{name}"), latency_s,
                f"durability.{name}_s", out)
    kernels: Dict[Any, float] = defaultdict(float)
    for span in spans:
        if span.name.startswith("kernels.") and span.rid is not None:
            kernels[span.rid] += own[span.sid]
    _per_op(kernels, latency_s, "kernels.self_s", out)

    legs = [s for s in spans if s.name == "cluster.leg" and s.rid is not None
            and (s.attrs or {}).get("op") == "shard_query"]
    if legs:
        out["cluster.leg_s"] = median([s.duration for s in legs])
        out["cluster.leg_s.share"] = median([s.duration / latency_s[s.rid] for s in legs])
    fanout: Dict[Any, float] = defaultdict(float)
    for leg in legs:
        fanout[leg.rid] = max(fanout[leg.rid], leg.duration)
    _per_op(fanout, latency_s, "cluster.fanout_s", out)
    _per_op(_sum_by_rid(spans, "cluster.merge"), latency_s, "cluster.merge_s", out)

    replays = [s.duration for s in spans if s.name == "durability.replay"]
    if replays and restarts_s:
        out["durability.replay_s"] = median(replays)
        out["durability.replay_s.share"] = median(replays) / median(restarts_s)
    appended = [(s.attrs or {}).get("bytes", 0) for s in spans
                if s.name == "durability.append" and s.rid is not None
                and (s.attrs or {}).get("op") in ("insert", "remove")]
    if appended:
        out["durability.bytes_per_mutation"] = median(appended)
    if response_bytes:
        out["server.response_bytes"] = median(list(response_bytes.values()))

    requests = counters.get("serve.cluster.requests") or counters.get("serve.requests", 0)
    shard_requests = counters.get("serve.requests", 0)
    if shard_requests:
        out["service.shed_ratio"] = counters.get("serve.shed", 0) / shard_requests
        out["service.coalesced_ratio"] = counters.get("serve.coalesced", 0) / shard_requests
    if requests:
        out["service.computes_per_request"] = counters.get("serve.computes", 0) / requests
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    if lookups:
        out["cache.hit_ratio"] = cache.get("hits", 0) / lookups
    out["cache.evictions"] = cache.get("evictions", 0)
    out["durability.checkpoints"] = counters.get("wal.checkpoints", 0)
    held = counters.get("serve.cluster.points_held", 0)
    if held:
        out["cluster.candidate_ratio"] = counters.get("serve.cluster.candidates_received", 0) / held
    return out
