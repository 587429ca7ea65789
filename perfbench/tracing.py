"""Span recording around the program's public entry points.

The traced run patches the layers' callables from outside (nothing under
``src/`` knows about it): each wrapper records one span with its name,
start, end, parent span and the operation's request id.  Parents come
from a per-thread stack; the request id is set by the outermost wrapper
of an operation (a served request or one MapReduce job) and inherited
by everything below it on that thread.  Spans stay in memory until the
run ends.

Self time is a span's duration minus the part of it its child spans
cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = ["Span", "Recorder", "self_times", "install_engine", "install_serving"]


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    rid: Any
    attrs: Optional[Dict[str, Any]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> str:
        return json.dumps([self.sid, self.name, self.start, self.end, self.parent,
                           self.rid, self.attrs], separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "Span":
        return cls(*json.loads(line))


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Per span id: duration minus the union of its children's intervals.

    Children are clipped to the parent's interval and overlapping
    children (concurrent legs) are merged, so covered time is never
    counted twice and self time is never negative.
    """
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.sid, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out[span.sid] = span.duration - covered
    return out


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Tuple[int, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_rid(self) -> Any:
        stack = self._stack()
        return stack[-1][1] if stack else None

    @contextmanager
    def span(self, name: str, rid: Any = None, attrs: Dict[str, Any] | None = None
             ) -> Iterator[Dict[str, Any]]:
        """Record one span; ``rid=None`` inherits the enclosing request id."""
        stack = self._stack()
        parent, inherited = stack[-1] if stack else (None, None)
        sid = next(self._ids)
        rid = inherited if rid is None else rid
        stack.append((sid, rid))
        attrs = {} if attrs is None else attrs
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, rid, attrs or None))

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        *,
        rid_of: Callable[..., Any] | None = None,
        attrs_of: Callable[..., Dict[str, Any]] | None = None,
    ) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            rid = rid_of(*args, **kwargs) if rid_of is not None else None
            attrs = attrs_of(*args, **kwargs) if attrs_of is not None else None
            with self.span(name, rid, attrs):
                return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner: Any, attr: str, name: str, **kw: Any) -> None:
        """Replace ``owner.attr`` (a module function or a class method)."""
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, **kw))

    def drain(self) -> List[Span]:
        spans, self.spans = self.spans, []
        return spans


KERNEL_OPS = ("any_dominates", "dominated_in", "dominator_counts", "dominated_counts",
              "filter_survivors", "sweep_sorted", "skyline")


def install_engine(rec: Recorder) -> None:
    """Wrap the batch layers: partitioning, filtering, kernels, mapreduce."""
    import repro.core.filtering as filtering
    import repro.core.kernels as kernels
    import repro.core.mr_skyline as mr
    import repro.mapreduce.runner as runner
    from repro.core.partitioning.base import SpacePartitioner
    from repro.mapreduce.shuffle import StreamingShuffle

    rec.patch(SpacePartitioner, "fit", "partitioning.fit")
    rec.patch(SpacePartitioner, "assign", "partitioning.assign")
    rec.patch(SpacePartitioner, "assign_block", "partitioning.assign")
    select = rec.wrap(filtering.compute_filter_points, "filtering.select")
    filtering.compute_filter_points = select
    mr.compute_filter_points = select
    for cls in (kernels.DominanceKernel, kernels.ScalarKernel, kernels.BlockKernel):
        for op in KERNEL_OPS:
            if op in vars(cls):
                rec.patch(cls, op, f"kernels.{op}")
    rec.patch(runner.Runner, "run", "mapreduce.run")
    rec.patch(runner.Runner, "run_chain", "mapreduce.run")
    rec.patch(runner, "shuffle", "mapreduce.shuffle")
    rec.patch(StreamingShuffle, "ingest", "mapreduce.shuffle")
    rec.patch(StreamingShuffle, "finalize", "mapreduce.shuffle")
    for cls in (mr.PartitionAssignMapper, mr.GlobalMergeMapper, mr.TreeMergeMapper,
                mr.IdentityBlockMapper):
        rec.patch(cls, "map", "mapreduce.map_udf")
    for cls in (mr.LocalSkylineReducer, mr.GlobalMergeReducer):
        rec.patch(cls, "reduce", "mapreduce.reduce_udf")


def install_serving(rec: Recorder, dump: Callable[[], int]) -> None:
    """Wrap the serving layers (inside the server process).

    ``dump`` answers the benchmark's ``perfbench.dump_spans`` op, which
    the front-end handler wrapper intercepts before dispatch.
    """
    import repro.serving.cluster.coordinator as coordinator
    import repro.serving.cluster.merge as merge
    import repro.serving.durability.recovery as recovery
    import repro.serving.queries as queries
    import repro.serving.service as service
    from repro.serving.cache import ResultCache
    from repro.serving.cluster.local import _TrackingTCPServer
    from repro.serving.durability.manager import DatasetLog
    from repro.serving.durability.wal import WriteAheadLog
    from repro.serving.server import ServingTCPServer
    from repro.serving.store import SkylineStore

    install_engine(rec)

    def rid_of_request(_service: Any, request: Any) -> Any:
        return request.get("rid") if isinstance(request, dict) else None

    def front_handler(handler: Callable[..., Any], name: str) -> Callable[..., Any]:
        traced = rec.wrap(handler, name, rid_of=rid_of_request)

        def dispatch(svc: Any, request: Any) -> Dict[str, Any]:
            if isinstance(request, dict) and request.get("op") == "perfbench.dump_spans":
                return {"ok": True, "spans": dump()}
            return traced(svc, request)

        return dispatch

    original_init = ServingTCPServer.__init__

    def init(self: Any, *args: Any, **kwargs: Any) -> None:
        original_init(self, *args, **kwargs)
        shard = isinstance(self, _TrackingTCPServer)
        self.handler = front_handler(self.handler, "shard.handle" if shard else "server.handle")

    ServingTCPServer.__init__ = init  # type: ignore[method-assign]

    rec.patch(service.SkylineService, "query", "service.query")
    rec.patch(ResultCache, "get", "cache.get")

    def kind_of(spec: Any, *_a: Any, **_k: Any) -> Dict[str, Any]:
        return {"kind": spec.kind}

    evaluate = rec.wrap(queries.evaluate, "queries.evaluate", attrs_of=kind_of)
    queries.evaluate = service.evaluate = merge.evaluate = evaluate
    rec.patch(SkylineStore, "skyline_snapshot", "store.skyline_snapshot")
    rec.patch(SkylineStore, "snapshot", "store.snapshot")
    rec.patch(SkylineStore, "insert", "store.mutation")
    rec.patch(SkylineStore, "remove", "store.mutation")

    original_append = WriteAheadLog.append_record

    def append_record(self: Any, payload: Dict[str, Any]) -> int:
        with rec.span("durability.append", attrs={"op": payload.get("op")}) as attrs:
            before = self.size_bytes
            seq = original_append(self, payload)
            attrs["bytes"] = self.size_bytes - before
            return seq

    WriteAheadLog.append_record = append_record  # type: ignore[method-assign]
    # The fsync itself has no public entry point of its own: every policy
    # funnels through this one method.
    rec.patch(WriteAheadLog, "_do_sync", "durability.sync")
    rec.patch(DatasetLog, "checkpoint", "durability.checkpoint")
    rec.patch(recovery, "recover_store", "durability.replay")

    original_call = coordinator.ShardEndpoint.call

    def call(self: Any, timeout_s: Any, **request: Any) -> Dict[str, Any]:
        # Writes reach the shard from the request's own thread; query legs
        # carry the id already (see to_dict below).
        request.setdefault("rid", rec.current_rid())
        with rec.span("cluster.leg", request["rid"], {"op": request.get("op")}):
            return original_call(self, timeout_s, **request)

    coordinator.ShardEndpoint.call = call  # type: ignore[method-assign]
    merge_fn = rec.wrap(merge.merge_candidates, "cluster.merge")
    merge.merge_candidates = coordinator.merge_candidates = merge_fn
    coordinator.compute_filter_points = rec.wrap(
        coordinator.compute_filter_points, "filtering.select")

    # A fan-out leg runs on its own thread, so the coordinator's request id
    # rides inside the leg's request, which is built from QuerySpec.to_dict.
    original_to_dict = queries.QuerySpec.to_dict

    def to_dict(self: Any) -> Dict[str, Any]:
        record = original_to_dict(self)
        rid = rec.current_rid()
        if rid is not None:
            record["rid"] = rid
        return record

    queries.QuerySpec.to_dict = to_dict  # type: ignore[method-assign]
