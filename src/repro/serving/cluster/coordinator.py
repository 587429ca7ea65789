"""The sharded backend: placement, fan-out, candidate merge, shard loss.

A :class:`ShardedBackend` puts N shard servers (each an ordinary
``repro serve`` speaking the JSON-lines protocol) behind the one serving
front end, :class:`~repro.serving.service.SkylineService`, which owns
admission, coalescing, the generation-vector-keyed cache, deadlines, the
stale fallback and the telemetry verbs.  What is left here is what only a
cluster does:

* **Reads** fan out as ``shard_query`` legs — one thread per owning shard
  — carrying the backend's current **filter points** (live rows of the
  dataset, recomputed from every full skyline merge) so shards prune
  dominated candidates before they cross the wire (Ciaccia–Martinenghi).
  The candidate union is merged exactly
  (:func:`~repro.serving.cluster.merge.merge_candidates`) through the
  kernel seam.
* **Writes** route to the owning shard
  (:class:`~repro.serving.cluster.shards.ShardMap`) and bump that shard's
  component of the dataset's **generation vector** — the versioned leg of
  the result-cache key, so mutation invalidates cached answers exactly
  like the single-node generation counter does.  A shard's rejection of a
  write is the writer's ``error``; a lost transport is ``unavailable``.
* **Shard loss degrades, it does not fail**: a refused connection, EOF,
  per-leg timeout, or an injected fault (the PR-4
  :class:`~repro.mapreduce.faults.FaultInjector` plugs in via
  ``fault_plan``) marks the leg lost, and the surviving legs merge into a
  partial answer listing the missing shards — never cached, so a
  recovered shard immediately restores full answers.
  ``serve.shard.lost`` counts and events make every loss observable;
  generation vectors fold in with ``max`` and never regress.  With every
  owning shard lost, :meth:`ShardedBackend.compute` raises and the front
  end serves its newest stale answer, if any.

Thread-safety: routing/identity state mutates only under ``self._lock``;
no RPC, join, or wait ever runs while it is held.  Each
:class:`ShardEndpoint` hands out pooled connections the same way — the
pool free-list is locked, the socket I/O is not.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.filtering import DEFAULT_FILTER_K, compute_filter_points
from repro.mapreduce.errors import TaskError
from repro.mapreduce.faults import FaultInjector, FaultPlan, apply_fault
from repro.observability.events import get_events
from repro.observability.metrics import get_metrics
from repro.observability.tracing import get_tracer
from repro.serving.client import ServingClient, ServingConnectionError
from repro.serving.cluster.merge import merge_candidates
from repro.serving.cluster.shards import DatasetPlacement, ShardMap
from repro.serving.queries import QuerySpec
from repro.serving.service import (
    Answer,
    ServeConfig,
    ServiceUnavailableError,
    UnknownDatasetError,
)

__all__ = [
    "ClusterUnavailableError",
    "ShardEndpoint",
    "ShardLostError",
    "ShardedBackend",
]


class ShardLostError(ServiceUnavailableError):
    """One shard could not answer (refused, EOF, timeout, injected fault)."""

    def __init__(self, shard: int, reason: str):
        super().__init__(f"shard {shard} lost ({reason})", shard=shard)
        self.reason = reason


class ClusterUnavailableError(ServiceUnavailableError):
    """Every owning shard of a query was lost."""


class ShardEndpoint:
    """One shard's address plus a small pool of protocol connections.

    ``call`` takes an idle connection (or dials a new one), runs exactly
    one request/response on it with the socket timeout set to the leg
    budget, and returns it to the pool.  Transport failure closes the
    connection, flips ``state`` to ``"lost"`` and raises
    :class:`ShardLostError`; the next call simply dials again — recovery
    is automatic once the shard is back.

    The pool free-list is the only locked state; socket I/O never runs
    under the lock.
    """

    def __init__(
        self,
        index: int,
        host: str,
        port: int,
        *,
        connect_timeout_s: float = 5.0,
    ):
        self.index = index
        self.host = host
        self.port = int(port)
        self.connect_timeout_s = connect_timeout_s
        self.state = "up"
        self._lock = threading.Lock()
        self._idle: List[ServingClient] = []

    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def call(self, timeout_s: float | None, **request: Any) -> Dict[str, Any]:
        """One request/response against this shard, bounded by ``timeout_s``."""
        client: ServingClient | None = None
        with self._lock:
            if self._idle:
                client = self._idle.pop()
        try:
            if client is None:
                client = ServingClient.connect(
                    self.host, self.port, timeout=self.connect_timeout_s
                )
            client.settimeout(timeout_s)
            response = client.call(**request)
        except (ServingConnectionError, OSError) as exc:
            if client is not None:
                _close_quietly(client)
            with self._lock:
                self.state = "lost"
            raise ShardLostError(self.index, str(exc)) from exc
        with self._lock:
            self.state = "up"
            self._idle.append(client)
        return response

    def close(self) -> None:
        with self._lock:
            clients = list(self._idle)
            self._idle.clear()
        for client in clients:
            _close_quietly(client)


def _close_quietly(client: ServingClient) -> None:
    try:
        client.close()
    except (OSError, ValueError):
        pass  # tearing down a dead transport; nothing left to report


def _parse_endpoint(spec: "str | Tuple[str, int]") -> Tuple[str, int]:
    if isinstance(spec, tuple):
        host, port = spec
        return str(host), int(port)
    host, sep, port = spec.rpartition(":")
    if not sep or not host:
        raise ValueError(f"shard endpoint must be host:port, got {spec!r}")
    return host, int(port)


class ShardedBackend:
    """Datasets placed across N ``repro serve`` shard servers.

    ``filter_k`` is the broadcast filter-set size (0 disables wire
    pruning), ``shard_timeout_s`` the per-leg budget of queries and writes
    (register is unbounded), ``connect_timeout_s`` the TCP connect budget
    per shard, and ``fault_plan`` injects shard faults (chaos tests): it is
    consulted once per fan-out leg with ``job_name="cluster.<dataset>"``,
    ``kind="map"``, ``index=<shard id>``.  The merge and filter kernel is
    the front end's ``ServeConfig.kernel``.
    """

    plane = "serve.cluster"
    event_prefix = "cluster"
    sharded = True

    def __init__(
        self,
        endpoints: Sequence["str | Tuple[str, int]"],
        *,
        filter_k: int = DEFAULT_FILTER_K,
        shard_timeout_s: float = 5.0,
        connect_timeout_s: float = 5.0,
        fault_plan: FaultPlan | None = None,
    ):
        if not endpoints:
            raise ValueError("a cluster needs at least one shard endpoint")
        if filter_k < 0:
            raise ValueError(f"filter_k must be >= 0, got {filter_k}")
        for name, value in (("shard_timeout_s", shard_timeout_s),
                            ("connect_timeout_s", connect_timeout_s)):
            if value <= 0:
                raise ValueError(f"{name} must be > 0, got {value}")
        self.filter_k = filter_k
        self.shard_timeout_s = shard_timeout_s
        self.kernel: str | None = None
        self._endpoints = [
            ShardEndpoint(
                i, *_parse_endpoint(spec), connect_timeout_s=connect_timeout_s
            )
            for i, spec in enumerate(endpoints)
        ]
        self._lock = threading.RLock()
        self._map = ShardMap(len(self._endpoints))
        #: dataset -> (generation vector the filters are valid at, rows)
        self._filters: Dict[str, Tuple[Tuple[int, ...], np.ndarray]] = {}
        self._lost_counts: Dict[int, int] = {}
        self._attempts: Dict[Tuple[str, int], int] = {}
        self._injector = (
            FaultInjector(fault_plan) if fault_plan is not None else None
        )

    def bind(self, config: ServeConfig) -> None:
        self.kernel = config.kernel

    @property
    def num_shards(self) -> int:
        return len(self._endpoints)

    def close(self) -> None:
        for endpoint in self._endpoints:
            endpoint.close()

    # -- dataset management -----------------------------------------------------

    def register(
        self,
        name: str,
        points: np.ndarray | Sequence[Sequence[float]] | None = None,
        *,
        scheme: str = "angle",
        num_partitions: int = 8,
        shard_fn: str | None = None,
    ) -> Tuple[int, ...]:
        """Place a dataset and register each shard's slice; returns the
        generation vector.

        ``shard_fn=None`` keeps the whole dataset on one shard
        (round-robin); ``"hash"`` / ``"angle"`` / ``"grid"`` / ``"dim"``
        split it across every shard with the matching partitioner.
        ``scheme`` / ``num_partitions`` pass through to each shard's
        *within-shard* store partitioning, unchanged from single-node.
        """
        rows = (
            np.asarray(points, dtype=np.float64) if points is not None else None
        )
        with self._lock:
            placement, slices = self._map.place(name, rows, shard_fn=shard_fn)
            self._filters.pop(name, None)
        try:
            for shard in placement.shard_ids:
                part = slices[shard]
                request: Dict[str, Any] = {
                    "op": "register",
                    "dataset": name,
                    "scheme": scheme,
                    "partitions": num_partitions,
                }
                if part is not None and part.shape[0]:
                    request["points"] = [[float(v) for v in row] for row in part]
                response = self._write(name, shard, None, request)
                with self._lock:
                    placement.observe_generation(shard, response["generation"])
        except BaseException:
            # As on a single node, a failed register leaves no dataset.
            with self._lock:
                self._map.discard(placement)
            raise
        with self._lock:
            gvec = placement.generation_vector()
        if self.filter_k and rows is not None and rows.shape[0]:
            flt = compute_filter_points(rows, k=self.filter_k, kernel=self.kernel)
            with self._lock:
                self._filters[name] = (gvec, flt)
        get_metrics().gauge("serve.cluster.datasets").set(
            len(self._map.datasets())
        )
        return gvec

    def datasets(self) -> List[str]:
        with self._lock:
            return self._map.datasets()

    def shard_of(self, dataset: str, point_id: int) -> int:
        """The shard currently holding global id ``point_id``.

        Ops/debug surface (and the chaos suite's ground truth for which
        points a killed shard takes down with it)."""
        with self._lock:
            placement = self._placement(dataset)
            try:
                return placement.local_of[int(point_id)][0]
            except KeyError:
                raise KeyError(
                    f"unknown point id {point_id} in dataset {dataset!r}"
                ) from None

    # -- mutations --------------------------------------------------------------

    def insert(
        self, dataset: str, point: Sequence[float] | np.ndarray
    ) -> Tuple[int, Tuple[int, ...]]:
        """Insert one row; returns ``(global id, generation vector)``."""
        row = np.asarray(point, dtype=np.float64).ravel()
        with self._lock:
            placement = self._placement(dataset)
            shard = placement.owner_of(row)
            self._filters.pop(dataset, None)
        response = self._write(
            dataset,
            shard,
            self.shard_timeout_s,
            {"op": "insert", "dataset": dataset, "point": [float(v) for v in row]},
        )
        with self._lock:
            placement.observe_generation(shard, response["generation"])
            global_id = placement.bind(shard, int(response["id"]))
            return global_id, placement.generation_vector()

    def remove(self, dataset: str, point_id: int) -> Tuple[int, ...]:
        """Remove one row by global id; returns the generation vector."""
        with self._lock:
            placement = self._placement(dataset)
            try:
                shard, local_id = placement.local_of[int(point_id)]
            except KeyError:
                raise KeyError(
                    f"unknown point id {point_id} in dataset {dataset!r}"
                ) from None
            self._filters.pop(dataset, None)
        response = self._write(
            dataset,
            shard,
            self.shard_timeout_s,
            {"op": "remove", "dataset": dataset, "id": local_id},
        )
        with self._lock:
            placement.observe_generation(shard, response["generation"])
            placement.release(int(point_id))
            return placement.generation_vector()

    def _write(
        self,
        dataset: str,
        shard: int,
        timeout_s: float | None,
        request: Dict[str, Any],
    ) -> Dict[str, Any]:
        """One write RPC; the shard's own rejection is the writer's
        ``ValueError`` (its message is the single-node error text)."""
        response = self._call_shard(dataset, shard, timeout_s, request)
        if not response.get("ok"):
            raise ValueError(str(response.get("error", response)))
        return response

    # -- answers ----------------------------------------------------------------

    def generations(self, dataset: str) -> Tuple[int, ...]:
        with self._lock:
            return self._placement(dataset).generation_vector()

    def compute(
        self, spec: QuerySpec, deadline_s: float | None = None, span: Any = None
    ) -> Answer:
        """Fan ``spec`` out to the owning shards and merge their candidates.

        Raises :class:`ClusterUnavailableError` when every owning shard is
        lost; any partial loss is an answer listing the missing shards.
        """
        metrics = get_metrics()
        start = time.monotonic()
        with self._lock:
            placement = self._placement(spec.dataset)
            gvec = placement.generation_vector()
            entry = self._filters.get(spec.dataset)
            filters = entry[1] if entry is not None and entry[0] == gvec else None
        if span is not None:
            span.set_attrs(filters=0 if filters is None else len(filters))
        answers, lost = self._fan_out(
            placement, spec, filters, start, deadline_s, span
        )
        gen_of = dict(zip(placement.shard_ids, gvec))
        with self._lock:
            unbound = any(
                (shard, int(i)) not in placement.global_of
                for shard, ans in answers.items()
                for i in ans["ids"]
            )
        if unbound or filters is not None and any(
            ans["generation"] != gen_of[shard] for shard, ans in answers.items()
        ):
            # A mutation raced the fan-out: either one of the filter rows
            # may no longer be live at the generation a shard answered at,
            # so its pruning cannot be trusted, or a shard answered with a
            # row whose insert is still in flight, so it has no global id
            # yet.  Re-fan-out once, unfiltered.
            metrics.counter("serve.cluster.unfiltered_retries").inc()
            answers, lost = self._fan_out(
                placement, spec, None, start, deadline_s, span
            )
        # A shard answering *below* the generation the coordinator has
        # already observed for it has restarted without (full) recovery:
        # its answer may silently miss acknowledged mutations, so the leg
        # is treated as lost rather than merged — and the placement's
        # max-merge generation vector never regresses.
        regressed = {
            shard
            for shard, ans in answers.items()
            if ans["generation"] < gen_of[shard]
        }
        if regressed:
            for shard in regressed:
                del answers[shard]
                lost[shard] = "generation-regressed"
            metrics.counter("serve.cluster.generation_regressed").inc(
                len(regressed)
            )
            get_events().emit(
                "cluster.generation_regressed",
                dataset=spec.dataset,
                shards=sorted(regressed),
            )
        with self._lock:
            for shard, ans in answers.items():
                placement.observe_generation(shard, ans["generation"])
            new_gvec = placement.generation_vector()
            mapped = [
                self._map_answer(placement, shard, ans)
                for shard, ans in answers.items()
            ]
        self._note_lost(spec.dataset, lost)
        if not answers:
            raise ClusterUnavailableError(
                f"query {spec.describe()}: all {len(lost)} owning shards "
                f"lost ({', '.join(f'{s}:{r}' for s, r in sorted(lost.items()))})",
                missing=sorted(lost),
            )
        ids, rows = merge_candidates(spec, mapped, kernel=self.kernel)
        metrics.counter("serve.cluster.points_held").inc(
            sum(ans["held"] for ans in answers.values())
        )
        metrics.counter("serve.cluster.candidates_received").inc(
            sum(ans["sent"] for ans in answers.values())
        )
        metrics.counter("serve.cluster.filter_pruned").inc(
            sum(ans["candidates"] - ans["sent"] for ans in answers.values())
        )
        # Each leg is exact at the generation its shard answered at; a
        # mutation acknowledged during the fan-out makes the answer racy.
        answered = tuple(
            answers[shard]["generation"] if shard in answers else current
            for shard, current in zip(placement.shard_ids, new_gvec)
        )
        exact = not lost and answered == new_gvec
        if exact and self.filter_k and spec.kind == "skyline" and len(ids):
            flt = compute_filter_points(rows, k=self.filter_k, kernel=self.kernel)
            with self._lock:
                self._filters[spec.dataset] = (new_gvec, flt)
        return Answer(ids, answered, missing=sorted(lost), cacheable=exact)

    # -- fan-out ----------------------------------------------------------------

    def _fan_out(
        self,
        placement: DatasetPlacement,
        spec: QuerySpec,
        filters: np.ndarray | None,
        start: float,
        deadline: float | None,
        parent_span: Any,
    ) -> Tuple[Dict[int, Dict[str, Any]], Dict[int, str]]:
        """Run one ``shard_query`` leg per owning shard, concurrently.

        Returns ``(answers by shard, lost shards by reason)``.  A leg is
        lost on transport failure, an injected fault, a non-ok response,
        or the query deadline expiring before it finishes.
        """
        tracer = get_tracer()
        request: Dict[str, Any] = {"op": "shard_query", **spec.to_dict()}
        if filters is not None and len(filters):
            request["filters"] = [[float(v) for v in row] for row in filters]
        results: Dict[int, Tuple[str, Any]] = {}
        results_lock = threading.Lock()
        threads: List[Tuple[int, threading.Thread]] = []

        def leg(shard: int, timeout_s: float | None) -> None:
            leg_span = tracer.start_span(
                "serve.shard.call", kind="serve", parent=parent_span,
                shard=shard, dataset=spec.dataset, query=spec.kind,
            )
            leg_status = "ok"
            try:
                response = self._call_shard(
                    spec.dataset, shard, timeout_s, request
                )
                if response.get("ok"):
                    with results_lock:
                        results[shard] = ("ok", response)
                    leg_span.set_attrs(sent=response.get("sent"))
                else:
                    leg_status = "error"
                    reason = str(
                        response.get("error")
                        or response.get("reason")
                        or "rejected"
                    )
                    with results_lock:
                        results[shard] = ("lost", reason)
            except ShardLostError as exc:
                leg_status = "error"
                with results_lock:
                    results[shard] = ("lost", exc.reason)
            finally:
                tracer.end_span(leg_span, status=leg_status)

        for shard in placement.shard_ids:
            timeout_s = self._leg_timeout(start, deadline)
            thread = threading.Thread(
                target=leg,
                args=(shard, timeout_s),
                name=f"cluster-leg-{spec.dataset}-{shard}",
                daemon=True,
            )
            threads.append((shard, thread))
            thread.start()
        answers: Dict[int, Dict[str, Any]] = {}
        lost: Dict[int, str] = {}
        for shard, thread in threads:
            remaining = self._remaining(start, deadline)
            thread.join(remaining)
            if thread.is_alive():
                lost[shard] = "timeout"
                continue
            state, payload = results[shard]
            if state == "ok":
                answers[shard] = payload
            else:
                lost[shard] = payload
        return answers, lost

    def _leg_timeout(self, start: float, deadline: float | None) -> float:
        remaining = self._remaining(start, deadline)
        if remaining is None:
            return self.shard_timeout_s
        return max(min(self.shard_timeout_s, remaining), 0.001)

    def _remaining(self, start: float, deadline: float | None) -> float | None:
        if deadline is None:
            return None
        return max(deadline - (time.monotonic() - start), 0.0)

    def _call_shard(
        self,
        dataset: str,
        shard: int,
        timeout_s: float | None,
        request: Dict[str, Any],
    ) -> Dict[str, Any]:
        """One shard RPC, with the chaos injector in the loop.

        Faults only ever target query fan-out legs: a lost write must
        surface as an error to the writer (there is no replica to degrade
        to), so injecting into register/insert/remove would just test the
        error path twice.
        """
        decision = None
        if self._injector is not None and request.get("op") == "shard_query":
            with self._lock:
                attempt = self._attempts.get((dataset, shard), 0) + 1
                self._attempts[(dataset, shard)] = attempt
                decision = self._injector.decide(
                    f"cluster.{dataset}", "map", shard, attempt
                )
        endpoint = self._endpoints[shard]
        if decision is None:
            return endpoint.call(timeout_s, **request)
        try:
            return apply_fault(
                decision,
                timeout_s,
                lambda: endpoint.call(timeout_s, **request),
            )
        except TaskError as exc:
            # Injected crash or cooperative hang-past-deadline: the leg is
            # lost exactly as if the shard's transport had died.
            raise ShardLostError(shard, f"injected:{decision.action}") from exc

    def _note_lost(self, dataset: str, lost: Dict[int, str]) -> None:
        if not lost:
            return
        metrics = get_metrics()
        with self._lock:
            for shard in lost:
                self._lost_counts[shard] = self._lost_counts.get(shard, 0) + 1
        for shard, reason in sorted(lost.items()):
            metrics.counter("serve.shard.lost").inc()
            get_events().emit(
                "serve.shard.lost", shard=shard, dataset=dataset, reason=reason
            )

    # -- internals --------------------------------------------------------------

    def _placement(self, dataset: str) -> DatasetPlacement:
        try:
            return self._map.placement(dataset)
        except KeyError:
            raise UnknownDatasetError(dataset) from None

    def _map_answer(
        self,
        placement: DatasetPlacement,
        shard: int,
        ans: Dict[str, Any],
    ) -> Tuple[List[int], np.ndarray]:
        """Translate one shard answer to global ids, dropping rows the
        coordinator has not bound yet (an insert still in flight)."""
        rows = np.asarray(ans["rows"], dtype=np.float64)
        global_ids: List[int] = []
        keep: List[int] = []
        for i, local_id in enumerate(ans["ids"]):
            gid = placement.global_of.get((shard, int(local_id)))
            if gid is not None:
                global_ids.append(gid)
                keep.append(i)
        if len(keep) != rows.shape[0]:
            rows = rows[keep] if keep else np.empty((0, rows.shape[1] if rows.ndim == 2 else 0))
        return global_ids, rows

    # -- introspection ----------------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        """The cluster's part of ``stats``: placements and the shard table."""
        with self._lock:
            placements = [self._map.placement(n) for n in self._map.datasets()]
            participation: Dict[int, int] = {}
            for p in placements:
                for shard in p.shard_ids:
                    participation[shard] = participation.get(shard, 0) + 1
            return {
                "cluster": {"shards": self.num_shards},
                "datasets": {
                    p.name: {
                        "size": p.size,
                        "generation": sum(p.generation_vector()),
                        "generations": list(p.generation_vector()),
                        "shard_fn": p.shard_fn,
                        "shards": len(p.shard_ids),
                    }
                    for p in placements
                },
                "shards": {
                    f"shard{ep.index}": {
                        "address": ep.address(),
                        "state": ep.state,
                        "datasets": participation.get(ep.index, 0),
                        "lost": self._lost_counts.get(ep.index, 0),
                    }
                    for ep in self._endpoints
                },
            }

    def health(self) -> Dict[str, Any]:
        """Shard reachability for the ``health`` op."""
        with self._lock:
            down = [ep.index for ep in self._endpoints if ep.state != "up"]
        return {"shards": self.num_shards, "shards_down": down}
