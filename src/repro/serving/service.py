"""The online skyline query service: one front end over a backend.

One :class:`SkylineService` answers concurrent queries without rerunning
the batch MapReduce pipeline.  It is the same front end for both serving
planes; what differs is the :class:`Backend` behind it:

* :class:`LocalBackend` — one :class:`~repro.serving.store.SkylineStore`
  per registered dataset, in this process (``repro serve``);
* :class:`~repro.serving.cluster.coordinator.ShardedBackend` — datasets
  placed across shard servers, queries fanned out and merged
  (``repro serve --cluster N`` / ``repro coordinator``).

The serve path of every request is::

    request -> admission -> cache -> [coalesce] -> backend.compute

* **Admission control.**  At most ``max_inflight`` requests execute at
  once (a bounded semaphore); up to ``max_queue`` more may wait.  A
  request arriving beyond that capacity is *shed*.
* **Stale fallback.**  A shed request, an expired deadline and a backend
  that reaches none of the data (every owning shard lost) take one path:
  the newest cached answer for the same query flagged ``degraded=True``
  when one exists (stale but never wrong), else an error —
  :class:`ServiceOverloadedError` (the 429 analogue) or the backend's
  :class:`ServiceUnavailableError`.
* **Request coalescing.**  Identical in-flight queries (same versioned
  cache key) share one computation: the first request becomes the leader
  and computes; followers wait on its flight and reuse the result — one
  compute span, many request spans.
* **Cache.**  A :class:`~repro.serving.cache.ResultCache` keyed by the
  backend's generation vector (a single node's is one element); only
  answers the backend marks exact at their vector are cached.
* **Deadlines.**  Per-query deadlines run on the monotonic clock
  (:class:`~repro._clock.MonotonicClock`; tests inject a fake),
  and bound queue wait, coalesced waits and the backend's fan-out legs.
* **Observability.**  Spans, counters and the latency histogram are named
  per plane (``serve.*`` on a single node, ``serve.cluster.*`` on a
  coordinator; events ``serve.*`` / ``cluster.*``), every finished request
  feeds the multi-window SLO burn tracker
  (:mod:`repro.observability.slo`), and the ``stats`` / ``health`` /
  ``slo`` / ``events`` protocol verbs serve it all live to ``repro top``.

Thread-safety: the flight table and queue depth mutate only under
``self._lock``; backend state is guarded by the backend's own lock.
"""

from __future__ import annotations

import resource
import threading
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Protocol,
    Sequence,
    Tuple,
)

import numpy as np

from repro._clock import MonotonicClock
from repro.core.kernels import KERNEL_NAMES, get_kernel
from repro.observability.events import get_events
from repro.observability.metrics import Histogram, get_metrics
from repro.observability.slo import SLOTracker, default_objectives
from repro.observability.tracing import get_tracer
from repro.serving.cache import ResultCache
from repro.serving.queries import QuerySpec, candidate_prune_mask, evaluate
from repro.serving.store import SkylineStore

if TYPE_CHECKING:  # pragma: no cover - typing only (and an import cycle guard)
    from repro.serving.durability.manager import DurabilityManager

__all__ = [
    "Answer",
    "Backend",
    "LocalBackend",
    "ServeConfig",
    "ServiceOverloadedError",
    "ServiceUnavailableError",
    "UnknownDatasetError",
    "QueryResponse",
    "SkylineService",
]

#: A ``partition.skew.*.max_min_ratio`` gauge crossing this bound emits a
#: ``skew.alert`` event (the re-balancer trigger signal).  It must exceed
#: 1: the ratio of a perfectly balanced job is 1.
SKEW_ALERT_RATIO = 8.0


class ServiceOverloadedError(RuntimeError):
    """429-style rejection: over capacity (or past deadline), no stale answer."""

    def __init__(self, message: str, *, reason: str = "overload"):
        super().__init__(message)
        self.reason = reason


class ServiceUnavailableError(RuntimeError):
    """The backend could not reach the data a request needs: the shard a
    write routes to, or every shard a query fans out to (``missing``)."""

    def __init__(
        self,
        message: str,
        *,
        shard: int | None = None,
        missing: Sequence[int] = (),
    ):
        super().__init__(message)
        self.shard = shard
        self.missing = sorted(missing)


class UnknownDatasetError(KeyError):
    """The query named a dataset that was never registered."""


@dataclass(slots=True)
class ServeConfig:
    """Admission-control, cache and backend knobs of one front end.

    Every field applies to both planes.  ``kernel`` is the stores'
    backend on a single node and the merge/filter backend of a
    coordinator.
    """

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
        if self.kernel is not None and self.kernel not in KERNEL_NAMES:
            raise ValueError(
                f"unknown kernel {self.kernel!r}; "
                f"expected one of {', '.join(KERNEL_NAMES)}"
            )


@dataclass(slots=True)
class QueryResponse:
    """One served answer, labelled with the generations it was computed at.

    ``missing_shards`` is ``None`` on a backend without shards, whose wire
    form carries the scalar ``generation``; a sharded answer carries the
    ``generations`` vector and the shards it could not reach.
    """

    dataset: str
    kind: str
    ids: List[int]
    generations: Tuple[int, ...]
    cache_hit: bool = False
    coalesced: bool = False
    degraded: bool = False
    status: str = "ok"
    latency_s: float = 0.0
    missing_shards: List[int] | None = None

    @property
    def generation(self) -> int:
        """The scalar generation (a vector's sum, as ``stats`` reports it)."""
        return sum(self.generations)

    def to_dict(self) -> Dict[str, Any]:
        sharded = self.missing_shards is not None
        record: Dict[str, Any] = {
            "dataset": self.dataset,
            "kind": self.kind,
            "ids": list(self.ids),
        }
        if sharded:
            record["generations"] = list(self.generations)
        else:
            record["generation"] = self.generations[0]
        record["cache_hit"] = self.cache_hit
        record["coalesced"] = self.coalesced
        record["degraded"] = self.degraded
        if sharded:
            record["missing_shards"] = list(self.missing_shards or ())
        record["status"] = self.status
        record["latency_s"] = round(self.latency_s, 9)
        return record


@dataclass(slots=True)
class Answer:
    """One computed answer, as a backend returns it."""

    ids: List[int]
    #: The generation vector the ids are exact at.
    generations: Tuple[int, ...]
    #: Shards that did not answer: a partial, degraded answer.
    missing: List[int] = field(default_factory=list)
    #: Whether the answer is exact at ``generations`` (only then cached).
    cacheable: bool = True


class Backend(Protocol):
    """What the front end needs from whatever holds the data.

    Mutations return the backend's generation label (an ``int`` on a single
    node, the vector on a sharded backend); :meth:`generations` is always
    the vector, the versioned leg of the cache key.  ``describe`` and
    ``health`` return the backend's part of the ``stats`` / ``health`` ops.
    """

    #: Counter / histogram / span prefix (``serve`` or ``serve.cluster``).
    plane: str
    #: Event-kind prefix (``serve`` or ``cluster``).
    event_prefix: str
    #: Whether answers carry a per-shard generation vector on the wire.
    sharded: bool

    def bind(self, config: ServeConfig) -> None: ...
    def register(self, name: str, points: np.ndarray | None, *, scheme: str,
                 num_partitions: int, shard_fn: str | None) -> Any: ...
    def insert(self, dataset: str, point: Any) -> Tuple[int, Any]: ...
    def remove(self, dataset: str, point_id: int) -> Any: ...
    def datasets(self) -> List[str]: ...
    def generations(self, dataset: str) -> Tuple[int, ...]: ...
    def compute(self, spec: QuerySpec, deadline_s: float | None,
                span: Any) -> Answer: ...
    def describe(self) -> Dict[str, Any]: ...
    def health(self) -> Dict[str, Any]: ...
    def close(self) -> None: ...


class LocalBackend:
    """Every dataset in this process, one :class:`SkylineStore` each."""

    plane = "serve"
    event_prefix = "serve"
    sharded = False

    def __init__(self, *, durability: "DurabilityManager | None" = None) -> None:
        self.durability = durability
        self.config = ServeConfig()
        self._lock = threading.Lock()
        self._stores: Dict[str, SkylineStore] = {}

    def bind(self, config: ServeConfig) -> None:
        self.config = config
        # Edge-triggered skew alert: the ROADMAP re-balancer's trigger.  The
        # watch lives on the registry current at construction time; tests
        # that swap registries build their service after the swap.
        self._skew_watch = get_metrics().watch(
            "partition.skew.*.max_min_ratio",
            SKEW_ALERT_RATIO,
            _on_skew_alert,
        )

    # -- datasets ---------------------------------------------------------------

    def register(
        self,
        name: str,
        points: np.ndarray | None = None,
        *,
        scheme: str = "angle",
        num_partitions: int = 8,
        shard_fn: str | None = None,
    ) -> int:
        """Create (or replace) a dataset; returns its generation.

        ``shard_fn`` places rows across shards, so one node ignores it.
        """
        if not name:
            raise ValueError("dataset name must be non-empty")
        store = SkylineStore(
            name,
            scheme=scheme,
            num_partitions=num_partitions,
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
        self._install(name, store)
        return store.generation

    def _install(self, name: str, store: SkylineStore) -> None:
        with self._lock:
            self._stores[name] = store
            get_metrics().gauge("serve.datasets").set(len(self._stores))

    def recover_datasets(self) -> List[Any]:
        """Recover every dataset found in the durability directory.

        Runs before the server starts answering: each recovered store is
        installed under its recorded name, with this backend's kernel
        overriding the persisted config (a restarted fleet member stays
        homogeneous with its peers).  Returns the
        per-dataset :class:`~repro.serving.durability.recovery.RecoveryReport`
        list (empty when durability is off or the directory is fresh).
        """
        if self.durability is None:
            return []
        from repro.serving.durability.recovery import recover_dataset

        reports = []
        for name in self.durability.dataset_names():
            store, report = recover_dataset(
                self.durability, name, kernel=self.config.kernel
            )
            if store is not None:
                self._install(name, store)
                reports.append(report)
        return reports

    def datasets(self) -> List[str]:
        with self._lock:
            return sorted(self._stores)

    def store(self, name: str) -> SkylineStore:
        with self._lock:
            try:
                return self._stores[name]
            except KeyError:
                raise UnknownDatasetError(name) from None

    def insert(
        self, dataset: str, point: Sequence[float] | np.ndarray
    ) -> Tuple[int, int]:
        return self.store(dataset).insert(point)

    def remove(self, dataset: str, point_id: int) -> int:
        return self.store(dataset).remove(point_id)

    # -- answers ----------------------------------------------------------------

    def generations(self, dataset: str) -> Tuple[int, ...]:
        return (self.store(dataset).generation,)

    def compute(
        self, spec: QuerySpec, deadline_s: float | None = None, span: Any = None
    ) -> Answer:
        store = self.store(spec.dataset)
        if spec.kind == "skyline":
            # The amortised path: the incremental structure answers from
            # its per-partition local skylines (one cached BNL merge).
            generation, ids = store.skyline_snapshot()
        else:
            snap = store.snapshot()
            generation = snap.generation
            ids = evaluate(spec, snap.ids, snap.rows, kernel=store.kernel)
        # The snapshot's generation may be newer than the one the cache
        # key was derived from (a mutation raced in); the answer is
        # labelled with the generation actually computed.
        return Answer(ids, (generation,))

    def shard_candidates(
        self,
        serve: Callable[[QuerySpec], QueryResponse],
        spec: QuerySpec,
        *,
        filters: np.ndarray | Sequence[Sequence[float]] | None = None,
    ) -> Dict[str, Any]:
        """Answer one fan-out leg of a cluster query (the ``shard_query`` op).

        ``serve`` is the front end's serve path for ``spec``; its ids are
        joined to their coordinate rows over a consistent snapshot and —
        when the coordinator broadcast ``filters`` (live rows of the
        *global* dataset) — every candidate the filter set already refutes
        is dropped before it crosses the wire
        (:func:`~repro.serving.queries.candidate_prune_mask`).

        The serve path and the snapshot are two lock acquisitions, so a
        racing mutation can slip between them; the answer re-runs (bounded)
        until the generations agree, falling back to a direct
        :func:`~repro.serving.queries.evaluate` over the snapshot.  The
        returned ``generation`` is therefore always the generation the ids
        and rows are mutually consistent at.
        """
        metrics = get_metrics()
        response = serve(spec)
        store = self.store(spec.dataset)
        snap = store.snapshot()
        for _ in range(3):
            if snap.generation == response.generation and not response.degraded:
                break
            response = serve(spec)
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

    def describe(self) -> Dict[str, Any]:
        with self._lock:
            stores = sorted(self._stores.items())
        return {
            "datasets": {
                name: {
                    "size": len(s),
                    "generation": s.generation,
                    "kernel": s.kernel_name,
                }
                for name, s in stores
            }
        }

    def health(self) -> Dict[str, Any]:
        return {}

    def close(self) -> None:
        """Nothing to release: the durability plane is closed by its owner."""


def _on_skew_alert(gauge: str, value: float, watch: Any) -> None:
    get_events().emit(
        "skew.alert",
        gauge=gauge,
        value=round(value, 4),
        threshold=watch.threshold,
    )


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
    """Long-running skyline query front end over one backend."""

    def __init__(
        self,
        config: ServeConfig | None = None,
        *,
        clock: Any = None,
        backend: Backend | None = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.config.validate()
        self.backend: Backend = backend if backend is not None else LocalBackend()
        self.backend.bind(self.config)
        if clock is None:
            clock = MonotonicClock()
        self.clock = clock
        self._lock = threading.RLock()
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

    def close(self) -> None:
        self.backend.close()

    def __enter__(self) -> "SkylineService":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- dataset management -----------------------------------------------------

    def register(
        self,
        name: str,
        points: np.ndarray | None = None,
        *,
        scheme: str = "angle",
        num_partitions: int = 8,
        shard_fn: str | None = None,
    ) -> Any:
        """Create (or replace) a dataset; returns its generation label.

        ``scheme`` / ``num_partitions`` partition each store; ``shard_fn``
        places rows across a sharded backend's shards (``None`` keeps the
        whole dataset on one shard).
        """
        label = self.backend.register(
            name,
            points,
            scheme=scheme,
            num_partitions=num_partitions,
            shard_fn=shard_fn,
        )
        # A replacement restarts its generations, so cached answers of the
        # previous incarnation must not be addressable at recycled keys.
        self._cache.invalidate(name)
        return label

    def datasets(self) -> List[str]:
        return self.backend.datasets()

    def store(self, name: str) -> SkylineStore:
        """A single node's store for ``name`` (a :class:`LocalBackend` only)."""
        return self.backend.store(name)  # type: ignore[attr-defined]

    # -- mutations --------------------------------------------------------------

    def insert(
        self, dataset: str, point: Sequence[float] | np.ndarray
    ) -> Tuple[int, Any]:
        """Insert into a dataset; returns ``(point id, new generation label)``."""
        return self._mutate(dataset, "insert", self.backend.insert, point)

    def remove(self, dataset: str, point_id: int) -> Any:
        """Remove from a dataset; returns the new generation label."""
        return self._mutate(dataset, "remove", self.backend.remove, point_id)

    def _mutate(
        self, dataset: str, op: str, apply: Callable[[str, Any], Any], arg: Any
    ) -> Any:
        plane = self.backend.plane
        with get_tracer().span(f"{plane}.mutation", kind="serve",
                               dataset=dataset, op=op):
            result = apply(dataset, arg)
        get_metrics().counter(f"{plane}.mutations").inc()
        return result

    # -- the serve path ---------------------------------------------------------

    def query(
        self, spec: QuerySpec, *, deadline_s: float | None = None
    ) -> QueryResponse:
        """Serve one query; raises :class:`UnknownDatasetError` on a bad name,
        :class:`ServiceOverloadedError` on shed and
        :class:`ServiceUnavailableError` on total shard loss when no stale
        answer is cached."""
        metrics = get_metrics()
        tracer = get_tracer()
        plane = self.backend.plane
        metrics.counter(f"{plane}.requests").inc()
        req = _Request(
            spec=spec,
            span=tracer.start_span(
                f"{plane}.request", kind="serve",
                dataset=spec.dataset, query=spec.kind,
            ),
            start=self.clock.monotonic(),
            deadline_s=(
                deadline_s if deadline_s is not None
                else self.config.default_deadline_s
            ),
        )
        try:
            self.backend.generations(spec.dataset)  # unknown name: no admission
            response = self._serve(req)
            req.status = response.status
            response.latency_s = self.clock.monotonic() - req.start
            return response
        except BaseException:
            if req.status == "ok":
                req.status = "error"
            raise
        finally:
            latency_s = self.clock.monotonic() - req.start
            metrics.histogram(f"{plane}.latency_s").observe(latency_s)
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

    def _serve(self, req: _Request) -> QueryResponse:
        if not self._admit(req):
            remaining = self._remaining_s(req)
            reason = (
                "deadline" if remaining is not None and remaining <= 0
                else "overload"
            )
            return self._shed(req, reason)
        try:
            generations = self.backend.generations(req.spec.dataset)
            cached = self._check_cache(req, generations)
            if cached is not None:
                return cached
            return self._coalesced_compute(req, generations)
        except ServiceUnavailableError as exc:
            return self._shed(req, "unavailable", exc)
        finally:
            self._admission.release()

    def _admit(self, req: _Request) -> bool:
        """Take an admission permit; False means over capacity or deadline."""
        tracer = get_tracer()
        span = tracer.start_span(
            f"{self.backend.plane}.admission", kind="serve", parent=req.span
        )
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

    def _response(self, req: _Request, answer: Answer, **flags: Any) -> QueryResponse:
        return QueryResponse(
            dataset=req.spec.dataset,
            kind=req.spec.kind,
            ids=answer.ids,
            generations=answer.generations,
            missing_shards=answer.missing if self.backend.sharded else None,
            **flags,
        )

    def _shed(
        self,
        req: _Request,
        reason: str,
        error: ServiceUnavailableError | None = None,
    ) -> QueryResponse:
        """The one fallback path: the newest stale answer flagged degraded,
        else raise — ``error`` when the backend reached none of the data,
        else a 429-style :class:`ServiceOverloadedError`."""
        metrics = get_metrics()
        plane, events = self.backend.plane, self.backend.event_prefix
        spec = req.spec
        missing = error.missing if error is not None else []
        if error is None:
            metrics.counter(f"{plane}.shed").inc()
            get_events().emit(
                f"{events}.shed", dataset=spec.dataset, query=spec.kind,
                reason=reason,
            )
            if reason == "deadline":
                metrics.counter(f"{plane}.deadline_exceeded").inc()
        stale = (
            self._cache.latest(spec.dataset, spec.kind, spec.params_key())
            if self.config.stale_on_overload else None
        )
        if stale is None:
            req.span.set_attrs(shed_reason=reason)
            if error is not None:
                raise error
            raise ServiceOverloadedError(
                f"query {spec.describe()} shed ({reason}): "
                f"{self.config.max_inflight} in flight, "
                f"{self.config.max_queue} queued, no stale answer cached",
                reason=reason,
            )
        generations, ids = stale
        response = self._response(
            req, Answer(ids, generations, missing),
            cache_hit=True, degraded=True, status="degraded",
        )
        self._note_degraded(req, reason, missing, stale_generation=response.generation)
        return response

    def _note_degraded(
        self, req: _Request, reason: str, missing: List[int], **attrs: Any
    ) -> None:
        get_metrics().counter(f"{self.backend.plane}.degraded").inc()
        if missing:
            attrs["missing"] = missing
        get_events().emit(
            f"{self.backend.event_prefix}.degraded",
            dataset=req.spec.dataset,
            query=req.spec.kind,
            reason=reason,
            **attrs,
        )
        req.span.set_attrs(degraded=True, shed_reason=reason)

    def _check_cache(
        self, req: _Request, generations: Tuple[int, ...]
    ) -> QueryResponse | None:
        tracer = get_tracer()
        plane = self.backend.plane
        span = tracer.start_span(f"{plane}.cache", kind="serve", parent=req.span)
        ids = self._cache.get(req.spec.cache_key(generations))
        hit = ids is not None
        span.set_attrs(hit=hit, generation=sum(generations))
        tracer.end_span(span)
        req.span.set_attrs(cache="hit" if hit else "miss", key=req.spec.describe())
        get_metrics().counter(
            f"{plane}.cache.hits" if hit else f"{plane}.cache.misses"
        ).inc()
        if ids is None:
            return None
        return self._response(req, Answer(ids, generations), cache_hit=True)

    def _coalesced_compute(
        self, req: _Request, generations: Tuple[int, ...]
    ) -> QueryResponse:
        """Compute once per (query, generations); identical requests share it."""
        key = req.spec.cache_key(generations)
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
                response = self._compute(req)
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
        get_metrics().counter(f"{self.backend.plane}.coalesced").inc()
        req.span.set_attrs(coalesced=True)
        finished = flight.event.wait(timeout=self._remaining_s(req))
        if not finished:
            return self._shed(req, "deadline")
        if flight.error is not None:
            raise flight.error
        assert flight.response is not None
        return replace(flight.response, coalesced=True)

    def _compute(self, req: _Request) -> QueryResponse:
        tracer = get_tracer()
        plane = self.backend.plane
        get_metrics().counter(f"{plane}.computes").inc()
        span = tracer.start_span(
            f"{plane}.compute", kind="serve", parent=req.span,
            dataset=req.spec.dataset, query=req.spec.kind,
            key=req.spec.describe(),
        )
        status = "ok"
        try:
            answer = self.backend.compute(req.spec, self._remaining_s(req), span)
            if answer.cacheable:
                # Cached under the generations actually computed, which
                # may be newer than the key the flight was opened under.
                self._cache.put(req.spec.cache_key(answer.generations), answer.ids)
            degraded = bool(answer.missing)
            if degraded:
                self._note_degraded(req, "shard_lost", answer.missing)
            response = self._response(
                req, answer, degraded=degraded,
                status="degraded" if degraded else "ok",
            )
            span.set_attrs(
                generation=response.generation,
                results=len(answer.ids),
                requests=req.flight.requests if req.flight is not None else 1,
            )
            return response
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
        """One fan-out leg through this front end's serve path; see
        :meth:`LocalBackend.shard_candidates`."""
        return self.backend.shard_candidates(  # type: ignore[attr-defined]
            lambda leg: self.query(leg, deadline_s=deadline_s),
            spec,
            filters=filters,
        )

    # -- introspection ----------------------------------------------------------

    def uptime_s(self) -> float:
        return self.clock.monotonic() - self._started_at

    def stats(self) -> Dict[str, Any]:
        """JSON-ready operational snapshot (the protocol's ``stats`` op).

        Everything ``repro top`` renders in one poll: uptime, the
        process's peak RSS, the backend's datasets (and, sharded, its
        shard table), cache and admission state, the ``serve.*``
        counters, the ``serve.*``/``partition.*`` gauges (partition-skew
        above all), and this plane's latency histogram summary.
        Counters are cumulative; pollers rate them with
        :func:`repro.observability.export.snapshot_delta`.
        """
        snapshot = get_metrics().snapshot()
        latency = f"{self.backend.plane}.latency_s"
        with self._lock:
            queued = self._queued
            inflight = len(self._flights)
        return {
            "uptime_s": round(self.uptime_s(), 6),
            # ru_maxrss is in KiB on Linux: the VmHWM of /proc/self/status.
            "peak_rss_mb": round(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 3
            ),
            "kernel": get_kernel(self.config.kernel).name,
            **self.backend.describe(),
            "cache": self._cache.stats(),
            "queued": queued,
            "inflight_computes": inflight,
            "counters": {
                name: value
                for name, value in snapshot["counters"].items()
                if name.startswith(("serve.", "wal.", "durability."))
            },
            "gauges": {
                name: value
                for name, value in snapshot["gauges"].items()
                if name.startswith(("serve.", "partition.", "durability."))
            },
            "latency": snapshot["histograms"].get(
                latency, Histogram(latency).snapshot()
            ),
            "events": get_events().counts(),
        }

    def slo_report(self) -> Dict[str, Any]:
        """Burn-rate evaluation of the service SLOs (the ``slo`` op)."""
        return self.slo.evaluate()

    def health(self) -> Dict[str, Any]:
        """Liveness + burn-driven readiness (the ``health`` op).

        ``healthy`` while every SLO is within budget; a ticket-level burn
        (or an unreachable shard) reports ``degraded`` and a page-level
        burn ``unhealthy`` — the states a load balancer or the ``repro
        top`` header needs, without shipping the whole burn report.
        """
        slo_state = self.slo.evaluate()["state"]
        status = {"ok": "healthy", "ticket": "degraded", "page": "unhealthy"}[
            slo_state
        ]
        backend = self.backend.health()
        if backend.get("shards_down") and status == "healthy":
            status = "degraded"
        with self._lock:
            queued = self._queued
            inflight = len(self._flights)
        return {
            "status": status,
            "slo_state": slo_state,
            "uptime_s": round(self.uptime_s(), 6),
            "datasets": len(self.backend.datasets()),
            "queued": queued,
            "inflight_computes": inflight,
            **backend,
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
