"""The online skyline query service: admission, coalescing, cache, compute.

One :class:`SkylineService` holds a :class:`~repro.serving.store.SkylineStore`
per registered dataset and answers concurrent queries without rerunning
the batch MapReduce pipeline.  The serve path of every request is::

    request -> admission -> cache -> [coalesce] -> compute

* **Admission control.**  At most ``max_inflight`` requests execute at
  once (a bounded semaphore); up to ``max_queue`` more may wait.  A
  request arriving beyond that capacity is *shed*: it gets the newest
  cached answer for the same query flagged ``degraded=True`` when one
  exists (the PR-4 degrade vocabulary — stale but never wrong), else a
  429-style :class:`ServiceOverloadedError`.
* **Request coalescing.**  Identical in-flight queries (same versioned
  cache key) share one computation: the first request becomes the leader
  and computes; followers wait on its flight and reuse the result — one
  ``serve.compute`` span, many ``serve.request`` spans.
* **Deadlines.**  Per-query deadlines run on the fault-tolerance clock
  (:class:`~repro.mapreduce.faults.MonotonicClock`; tests inject a fake),
  and bound both queue wait and coalesced waits.
* **Observability.**  Serve-path spans (``serve.request`` →
  ``serve.admission`` / ``serve.cache`` / ``serve.compute``), the
  ``serve.*`` counters (requests, cache.hits/misses, shed, coalesced,
  degraded, computes, mutations, deadline_exceeded) and the
  ``serve.latency_s`` histogram all land in the PR-1 observability layer.
  On top of those, every shed/degraded answer emits a structured event
  (:mod:`repro.observability.events`), every finished request feeds the
  multi-window SLO burn tracker (:mod:`repro.observability.slo`), and an
  edge-triggered :class:`~repro.observability.metrics.ThresholdWatch` on
  the per-dataset ``partition.skew.*`` gauges emits ``skew.alert`` events
  — all served live by the ``stats`` / ``health`` / ``slo`` / ``events``
  protocol verbs and rendered by ``repro top``.

Thread-safety: the flight table and queue depth mutate only under
``self._lock``; per-dataset state is guarded by each store's own lock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.kernels import KERNEL_NAMES, get_kernel
from repro.observability.events import get_events
from repro.observability.metrics import Histogram, get_metrics
from repro.observability.slo import SLOTracker, default_objectives
from repro.observability.tracing import get_tracer
from repro.serving.cache import ResultCache
from repro.serving.queries import QuerySpec, candidate_prune_mask, evaluate
from repro.serving.store import DEFAULT_MR_BULK_THRESHOLD, SkylineStore

if TYPE_CHECKING:  # pragma: no cover - typing only (and an import cycle guard)
    from repro.mapreduce.executors import Executor
    from repro.serving.durability.manager import DurabilityManager

__all__ = [
    "ServeConfig",
    "ServiceOverloadedError",
    "UnknownDatasetError",
    "QueryResponse",
    "SkylineService",
]


class ServiceOverloadedError(RuntimeError):
    """429-style rejection: over capacity (or past deadline), no stale answer."""

    def __init__(self, message: str, *, reason: str = "overload"):
        super().__init__(message)
        self.reason = reason


class UnknownDatasetError(KeyError):
    """The query named a dataset that was never registered."""


@dataclass(slots=True)
class ServeConfig:
    """Admission-control and cache knobs of one service instance."""

    #: Concurrent computations admitted at once.
    max_inflight: int = 8
    #: Requests allowed to wait for admission beyond ``max_inflight``.
    max_queue: int = 16
    #: Versioned result-cache capacity (entries).
    cache_entries: int = 256
    #: Deadline applied when a query names none (``None`` = unbounded).
    default_deadline_s: float | None = None
    #: Shed path: serve the newest stale cached answer (``degraded=True``)
    #: instead of rejecting, when one exists.
    stale_on_overload: bool = True
    #: Bulk loads at or above this many rows run the MapReduce pipeline.
    mr_bulk_threshold: int = DEFAULT_MR_BULK_THRESHOLD
    #: Workers / executor for MR bulk loads of registered datasets.
    num_workers: int = 2
    executor: str | Executor | None = None
    #: Dominance backend for every registered dataset and its queries
    #: (``"scalar"`` / ``"block"``); ``None`` resolves the process default
    #: (``$REPRO_KERNEL``, else ``scalar``).  ``repro serve`` always passes
    #: a name: ``--kernel``, else ``$REPRO_KERNEL``, else ``block``.
    kernel: str | None = None
    #: Latency SLO: this fraction of answered requests …
    slo_latency_target: float = 0.95
    #: … must finish within this many seconds.
    slo_latency_threshold_s: float = 0.25
    #: Availability SLO: fraction of requests that must be answered at all
    #: (shed-without-stale and errors count against it).
    slo_availability_target: float = 0.999
    #: A ``partition.skew.*.max_min_ratio`` gauge crossing this bound emits
    #: a ``skew.alert`` event (the re-balancer trigger signal).
    skew_alert_ratio: float = 8.0

    def validate(self) -> None:
        if self.max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {self.max_inflight}")
        if self.max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {self.max_queue}")
        if self.cache_entries < 0:
            raise ValueError(f"cache_entries must be >= 0, got {self.cache_entries}")
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise ValueError(
                f"default_deadline_s must be > 0, got {self.default_deadline_s}"
            )
        for name in ("slo_latency_target", "slo_availability_target"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {value}")
        if self.slo_latency_threshold_s <= 0:
            raise ValueError(
                f"slo_latency_threshold_s must be > 0, "
                f"got {self.slo_latency_threshold_s}"
            )
        if self.skew_alert_ratio <= 1.0:
            raise ValueError(
                f"skew_alert_ratio must be > 1, got {self.skew_alert_ratio}"
            )
        if self.kernel is not None and self.kernel not in KERNEL_NAMES:
            raise ValueError(
                f"unknown kernel {self.kernel!r}; "
                f"expected one of {', '.join(KERNEL_NAMES)}"
            )


@dataclass(slots=True)
class QueryResponse:
    """One served answer, labelled with the generation it was computed at."""

    dataset: str
    kind: str
    ids: List[int]
    generation: int
    cache_hit: bool = False
    coalesced: bool = False
    degraded: bool = False
    status: str = "ok"
    latency_s: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "dataset": self.dataset,
            "kind": self.kind,
            "ids": list(self.ids),
            "generation": self.generation,
            "cache_hit": self.cache_hit,
            "coalesced": self.coalesced,
            "degraded": self.degraded,
            "status": self.status,
            "latency_s": round(self.latency_s, 9),
        }


class _Flight:
    """One in-flight computation shared by coalesced requests."""

    __slots__ = ("event", "response", "error", "requests")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.response: QueryResponse | None = None
        self.error: BaseException | None = None
        self.requests = 1


@dataclass(slots=True)
class _Request:
    """Per-request bookkeeping threaded through the serve path."""

    spec: QuerySpec
    span: Any
    start: float
    deadline_s: float | None = None
    status: str = "ok"
    flight: _Flight | None = field(default=None, repr=False)


class SkylineService:
    """Long-running skyline query service over registered datasets."""

    def __init__(
        self,
        config: ServeConfig | None = None,
        *,
        clock: Any = None,
        durability: "DurabilityManager | None" = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.config.validate()
        self.durability = durability
        if clock is None:
            from repro.mapreduce.faults import MonotonicClock

            clock = MonotonicClock()
        self.clock = clock
        self._lock = threading.RLock()
        self._stores: Dict[str, SkylineStore] = {}
        self._cache = ResultCache(self.config.cache_entries)
        self._flights: Dict[Tuple[Any, ...], _Flight] = {}
        self._queued = 0
        self._admission = threading.BoundedSemaphore(self.config.max_inflight)
        self._started_at = self.clock.monotonic()
        self.slo = SLOTracker(
            default_objectives(
                availability_target=self.config.slo_availability_target,
                latency_threshold_s=self.config.slo_latency_threshold_s,
                latency_target=self.config.slo_latency_target,
            ),
            clock=self.clock,
        )
        # Edge-triggered skew alert: the ROADMAP re-balancer's trigger.  The
        # watch lives on the registry current at construction time; tests
        # that swap registries build their service after the swap.
        self._skew_watch = get_metrics().watch(
            "partition.skew.*.max_min_ratio",
            self.config.skew_alert_ratio,
            self._on_skew_alert,
        )

    def _on_skew_alert(self, gauge: str, value: float, watch: Any) -> None:
        get_events().emit(
            "skew.alert",
            gauge=gauge,
            value=round(value, 4),
            threshold=watch.threshold,
        )

    # -- dataset management -----------------------------------------------------

    def register(
        self,
        name: str,
        points: np.ndarray | None = None,
        *,
        scheme: str = "angle",
        num_partitions: int = 8,
    ) -> int:
        """Create (or replace) a dataset; returns its generation."""
        if not name:
            raise ValueError("dataset name must be non-empty")
        store = SkylineStore(
            name,
            scheme=scheme,
            num_partitions=num_partitions,
            num_workers=self.config.num_workers,
            mr_bulk_threshold=self.config.mr_bulk_threshold,
            executor=self.config.executor,
            kernel=self.config.kernel,
        )
        if self.durability is not None:
            # WAL-before-apply, from the very first byte: the register
            # record (carrying the construction config) lands before the
            # initial load's bulk record, so replay rebuilds the store
            # with the same parameters, then the same data.
            log = self.durability.dataset_log(name)
            store.attach_durability(log)
            log.log_register(store.store_config())
        if points is not None:
            store.bulk_load(points)
        with self._lock:
            replaced = name in self._stores
            self._stores[name] = store
            get_metrics().gauge("serve.datasets").set(len(self._stores))
        if replaced:
            # The fresh store restarts its generation counter, so cached
            # answers of the previous incarnation must not be addressable.
            self._cache.invalidate(name)
        return store.generation

    def adopt_store(self, name: str, store: SkylineStore) -> int:
        """Install an externally-built store (the recovery path) as a
        dataset; returns its generation."""
        with self._lock:
            replaced = name in self._stores
            self._stores[name] = store
            get_metrics().gauge("serve.datasets").set(len(self._stores))
        if replaced:
            self._cache.invalidate(name)
        return store.generation

    def recover_datasets(self) -> List[Any]:
        """Recover every dataset found in the durability directory.

        Runs before the server starts answering: each recovered store is
        adopted under its recorded name, with this service's executor and
        kernel flags overriding the persisted config (a restarted fleet
        member stays homogeneous with its peers).  Returns the
        per-dataset :class:`~repro.serving.durability.recovery.RecoveryReport`
        list (empty when durability is off or the directory is fresh).
        """
        if self.durability is None:
            return []
        from repro.serving.durability.recovery import recover_dataset

        reports = []
        for name in self.durability.dataset_names():
            store, report = recover_dataset(
                self.durability,
                name,
                executor=self.config.executor,
                kernel=self.config.kernel,
            )
            if store is not None:
                self.adopt_store(name, store)
                reports.append(report)
        return reports

    def sync_durability(self) -> None:
        """Flush every WAL to stable storage (shutdown / signal path)."""
        if self.durability is not None:
            self.durability.sync()

    def datasets(self) -> List[str]:
        with self._lock:
            return sorted(self._stores)

    def store(self, name: str) -> SkylineStore:
        with self._lock:
            try:
                return self._stores[name]
            except KeyError:
                raise UnknownDatasetError(name) from None

    # -- mutations --------------------------------------------------------------

    def insert(
        self, dataset: str, point: Sequence[float] | np.ndarray
    ) -> Tuple[int, int]:
        """Insert into a dataset; returns ``(point id, new generation)``."""
        with get_tracer().span("serve.mutation", kind="serve",
                               dataset=dataset, op="insert"):
            result = self.store(dataset).insert(point)
        get_metrics().counter("serve.mutations").inc()
        return result

    def remove(self, dataset: str, point_id: int) -> int:
        """Remove from a dataset; returns the new generation."""
        with get_tracer().span("serve.mutation", kind="serve",
                               dataset=dataset, op="remove"):
            generation = self.store(dataset).remove(point_id)
        get_metrics().counter("serve.mutations").inc()
        return generation

    def bulk_load(self, dataset: str, points: np.ndarray) -> Tuple[List[int], int]:
        """Bulk-insert; returns ``(new point ids, new generation)``."""
        with get_tracer().span("serve.mutation", kind="serve",
                               dataset=dataset, op="bulk_load"):
            result = self.store(dataset).bulk_load(points)
        get_metrics().counter("serve.mutations").inc()
        return result

    # -- the serve path ---------------------------------------------------------

    def query(
        self, spec: QuerySpec, *, deadline_s: float | None = None
    ) -> QueryResponse:
        """Serve one query; raises :class:`ServiceOverloadedError` on shed
        without a stale answer, :class:`UnknownDatasetError` on a bad name."""
        metrics = get_metrics()
        tracer = get_tracer()
        metrics.counter("serve.requests").inc()
        req = _Request(
            spec=spec,
            span=tracer.start_span(
                "serve.request", kind="serve",
                dataset=spec.dataset, query=spec.kind,
            ),
            start=self.clock.monotonic(),
            deadline_s=(
                deadline_s if deadline_s is not None
                else self.config.default_deadline_s
            ),
        )
        try:
            store = self.store(spec.dataset)
            response = self._serve(req, store)
            req.status = response.status
            response.latency_s = self.clock.monotonic() - req.start
            return response
        except BaseException:
            if req.status == "ok":
                req.status = "error"
            raise
        finally:
            latency_s = self.clock.monotonic() - req.start
            metrics.histogram("serve.latency_s").observe(latency_s)
            # SLO accounting: a degraded (stale) answer is still an answer;
            # errors and shed-without-stale burn the availability budget.
            self.slo.record(latency_s, ok=req.status in ("ok", "degraded"))
            req.span.set_attrs(status=req.status)
            tracer.end_span(
                req.span,
                status="ok" if req.status in ("ok", "degraded") else "error",
            )

    # -- serve-path stages ------------------------------------------------------

    def _remaining_s(self, req: _Request) -> float | None:
        """Seconds left before the request's deadline (None = unbounded)."""
        if req.deadline_s is None:
            return None
        return req.deadline_s - (self.clock.monotonic() - req.start)

    def _serve(self, req: _Request, store: SkylineStore) -> QueryResponse:
        if not self._admit(req):
            remaining = self._remaining_s(req)
            reason = (
                "deadline" if remaining is not None and remaining <= 0
                else "overload"
            )
            return self._shed(req, reason)
        try:
            cached = self._check_cache(req, store)
            if cached is not None:
                return cached
            return self._coalesced_compute(req, store)
        finally:
            self._admission.release()

    def _admit(self, req: _Request) -> bool:
        """Take an admission permit; False means over capacity or deadline."""
        tracer = get_tracer()
        span = tracer.start_span("serve.admission", kind="serve", parent=req.span)
        admitted = self._admission.acquire(blocking=False)
        waited = False
        if not admitted:
            with self._lock:
                can_queue = self._queued < self.config.max_queue
                if can_queue:
                    self._queued += 1
            if can_queue:
                waited = True
                remaining = self._remaining_s(req)
                try:
                    if remaining is None:
                        admitted = self._admission.acquire()
                    elif remaining > 0:
                        admitted = self._admission.acquire(timeout=remaining)
                finally:
                    with self._lock:
                        self._queued -= 1
        span.set_attrs(admitted=admitted, queued=waited)
        tracer.end_span(span)
        return admitted

    def _shed(self, req: _Request, reason: str) -> QueryResponse:
        """Over-admission: degraded stale answer when possible, else 429."""
        metrics = get_metrics()
        metrics.counter("serve.shed").inc()
        get_events().emit(
            "serve.shed",
            dataset=req.spec.dataset,
            query=req.spec.kind,
            reason=reason,
        )
        if reason == "deadline":
            metrics.counter("serve.deadline_exceeded").inc()
        if self.config.stale_on_overload:
            stale = self._cache.latest(
                req.spec.dataset, req.spec.kind, req.spec.params_key()
            )
            if stale is not None:
                generation, ids = stale
                metrics.counter("serve.degraded").inc()
                get_events().emit(
                    "serve.degraded",
                    dataset=req.spec.dataset,
                    query=req.spec.kind,
                    reason=reason,
                    stale_generation=generation,
                )
                req.span.set_attrs(degraded=True, shed_reason=reason)
                return QueryResponse(
                    dataset=req.spec.dataset,
                    kind=req.spec.kind,
                    ids=ids,
                    generation=generation,
                    cache_hit=True,
                    degraded=True,
                    status="degraded",
                )
        req.span.set_attrs(shed_reason=reason)
        raise ServiceOverloadedError(
            f"query {req.spec.describe()} shed ({reason}): "
            f"{self.config.max_inflight} in flight, "
            f"{self.config.max_queue} queued, no stale answer cached",
            reason=reason,
        )

    def _check_cache(
        self, req: _Request, store: SkylineStore
    ) -> QueryResponse | None:
        tracer = get_tracer()
        metrics = get_metrics()
        generation = store.generation
        key = req.spec.cache_key(generation)
        span = tracer.start_span("serve.cache", kind="serve", parent=req.span)
        ids = self._cache.get(key)
        hit = ids is not None
        span.set_attrs(hit=hit, generation=generation)
        tracer.end_span(span)
        req.span.set_attrs(cache="hit" if hit else "miss", key=req.spec.describe())
        metrics.counter("serve.cache.hits" if hit else "serve.cache.misses").inc()
        if ids is None:
            return None
        return QueryResponse(
            dataset=req.spec.dataset,
            kind=req.spec.kind,
            ids=ids,
            generation=generation,
            cache_hit=True,
        )

    def _coalesced_compute(
        self, req: _Request, store: SkylineStore
    ) -> QueryResponse:
        """Compute once per (query, generation); identical requests share it."""
        key = req.spec.cache_key(store.generation)
        leader = False
        with self._lock:
            flight = self._flights.get(key)
            if flight is None:
                flight = _Flight()
                self._flights[key] = flight
                leader = True
            else:
                flight.requests += 1
        req.flight = flight
        if leader:
            try:
                response = self._compute(req, store, key)
                flight.response = response
                return response
            except BaseException as exc:
                flight.error = exc
                raise
            finally:
                with self._lock:
                    self._flights.pop(key, None)
                flight.event.set()
        return self._follow(req, flight)

    def _follow(self, req: _Request, flight: _Flight) -> QueryResponse:
        """Wait for the flight leader's result (bounded by the deadline)."""
        metrics = get_metrics()
        metrics.counter("serve.coalesced").inc()
        req.span.set_attrs(coalesced=True)
        remaining = self._remaining_s(req)
        finished = flight.event.wait(timeout=remaining)
        if not finished:
            return self._shed(req, "deadline")
        if flight.error is not None:
            raise flight.error
        assert flight.response is not None
        return replace(flight.response, coalesced=True)

    def _compute(
        self, req: _Request, store: SkylineStore, key: Tuple[Any, ...]
    ) -> QueryResponse:
        metrics = get_metrics()
        tracer = get_tracer()
        metrics.counter("serve.computes").inc()
        span = tracer.start_span(
            "serve.compute", kind="serve", parent=req.span,
            dataset=req.spec.dataset, query=req.spec.kind,
            key=req.spec.describe(),
        )
        status = "ok"
        try:
            if req.spec.kind == "skyline":
                # The amortised path: the incremental structure answers from
                # its per-partition local skylines (one cached BNL merge).
                generation, ids = store.skyline_snapshot()
            else:
                snap = store.snapshot()
                generation = snap.generation
                ids = evaluate(req.spec, snap.ids, snap.rows, kernel=store.kernel)
            # The snapshot's generation may be newer than the one the cache
            # key was derived from (a mutation raced in); the result is
            # cached and labelled under the generation actually computed.
            self._cache.put(req.spec.cache_key(generation), ids)
            span.set_attrs(
                generation=generation,
                results=len(ids),
                requests=req.flight.requests if req.flight is not None else 1,
            )
            return QueryResponse(
                dataset=req.spec.dataset,
                kind=req.spec.kind,
                ids=ids,
                generation=generation,
            )
        except BaseException:
            status = "error"
            raise
        finally:
            tracer.end_span(span, status=status)

    # -- cluster shard duty -----------------------------------------------------

    def shard_candidates(
        self,
        spec: QuerySpec,
        *,
        filters: np.ndarray | Sequence[Sequence[float]] | None = None,
        deadline_s: float | None = None,
    ) -> Dict[str, Any]:
        """Answer one fan-out leg of a cluster query (the ``shard_query`` op).

        Runs the normal serve path for ``spec``, joins the resulting ids to
        their coordinate rows over a consistent snapshot, and — when the
        coordinator broadcast ``filters`` (live rows of the *global*
        dataset) — drops every candidate the filter set already refutes
        before it crosses the wire (:func:`~repro.serving.queries.candidate_prune_mask`).

        The serve path and the snapshot are two lock acquisitions, so a
        racing mutation can slip between them; the answer re-runs (bounded)
        until the generations agree, falling back to a direct
        :func:`~repro.serving.queries.evaluate` over the snapshot.  The
        returned ``generation`` is therefore always the generation the ids
        and rows are mutually consistent at.
        """
        metrics = get_metrics()
        response = self.query(spec, deadline_s=deadline_s)
        store = self.store(spec.dataset)
        snap = store.snapshot()
        for _ in range(3):
            if snap.generation == response.generation and not response.degraded:
                break
            response = self.query(spec, deadline_s=deadline_s)
            snap = store.snapshot()
        if snap.generation == response.generation and not response.degraded:
            ids = [int(i) for i in response.ids]
        else:
            ids = evaluate(spec, snap.ids, snap.rows, kernel=store.kernel)
        rows = snap.rows_of(ids)
        held = int(snap.ids.shape[0])
        candidates = len(ids)
        if filters is not None:
            flt = np.asarray(filters, dtype=np.float64)
            if flt.size and candidates:
                mask = candidate_prune_mask(
                    spec, rows, flt, kernel=self.config.kernel
                )
                ids = [pid for pid, keep in zip(ids, mask) if keep]
                rows = rows[mask]
        metrics.counter("serve.shard.served").inc()
        metrics.counter("serve.shard.held").inc(held)
        metrics.counter("serve.shard.sent").inc(len(ids))
        metrics.counter("serve.shard.pruned").inc(candidates - len(ids))
        return {
            "ids": ids,
            "rows": [[float(v) for v in row] for row in rows],
            "generation": int(snap.generation),
            "held": held,
            "candidates": candidates,
            "sent": len(ids),
        }

    # -- introspection ----------------------------------------------------------

    def cache_stats(self) -> Dict[str, int]:
        return self._cache.stats()

    def uptime_s(self) -> float:
        return self.clock.monotonic() - self._started_at

    def stats(self) -> Dict[str, Any]:
        """JSON-ready operational snapshot (the protocol's ``stats`` op).

        Everything ``repro top`` renders in one poll: per-dataset
        generation/size, cache and admission state, the ``serve.*``
        counters, the ``serve.*``/``partition.*`` gauges (partition-skew
        above all), and the serve-latency histogram summary.  Counters are
        cumulative; pollers rate them with
        :func:`repro.observability.export.snapshot_delta`.
        """
        snapshot = get_metrics().snapshot()
        with self._lock:
            datasets = {
                name: {
                    "size": len(s),
                    "generation": s.generation,
                    "kernel": s.kernel_name,
                }
                for name, s in sorted(self._stores.items())
            }
            queued = self._queued
            inflight = len(self._flights)
        return {
            "uptime_s": round(self.uptime_s(), 6),
            "kernel": get_kernel(self.config.kernel).name,
            "datasets": datasets,
            "cache": self._cache.stats(),
            "queued": queued,
            "inflight_computes": inflight,
            "counters": {
                name: value
                for name, value in snapshot["counters"].items()
                if name.startswith(("serve.", "prune.", "wal.", "durability."))
            },
            "gauges": {
                name: value
                for name, value in snapshot["gauges"].items()
                if name.startswith(("serve.", "partition.", "durability."))
            },
            "latency": snapshot["histograms"].get(
                "serve.latency_s", Histogram("serve.latency_s").snapshot()
            ),
            "events": get_events().counts(),
        }

    def slo_report(self) -> Dict[str, Any]:
        """Burn-rate evaluation of the service SLOs (the ``slo`` op)."""
        return self.slo.evaluate()

    def health(self) -> Dict[str, Any]:
        """Liveness + burn-driven readiness (the ``health`` op).

        ``healthy`` while every SLO is within budget; a ticket-level burn
        reports ``degraded`` and a page-level burn ``unhealthy`` — the
        states a load balancer or the ``repro top`` header needs, without
        shipping the whole burn report.
        """
        slo_state = self.slo.evaluate()["state"]
        status = {"ok": "healthy", "ticket": "degraded", "page": "unhealthy"}[
            slo_state
        ]
        with self._lock:
            datasets = len(self._stores)
            queued = self._queued
            inflight = len(self._flights)
        return {
            "status": status,
            "slo_state": slo_state,
            "uptime_s": round(self.uptime_s(), 6),
            "datasets": datasets,
            "queued": queued,
            "inflight_computes": inflight,
        }

    def events_tail(
        self,
        n: int | None = 50,
        *,
        kinds: Sequence[str] | None = None,
        since_seq: int | None = None,
    ) -> List[Dict[str, Any]]:
        """Newest structured events as dicts (the ``events`` op)."""
        return [
            event.to_dict()
            for event in get_events().tail(n, kinds=kinds, since_seq=since_seq)
        ]
