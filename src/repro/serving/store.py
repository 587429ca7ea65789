"""Generation-counted skyline store — one per registered dataset.

A :class:`SkylineStore` wraps a :class:`~repro.core.incremental.IncrementalSkyline`
behind a lock and a monotonically-increasing **generation counter**: every
mutation (insert / remove / bulk load) bumps the generation, and every
query result is labelled with the generation of the membership snapshot it
was computed from.  The serving layer's result cache keys on that
generation, so mutation implicitly invalidates all cached answers without
any explicit cache wiring here.

A bulk load of any size — live, or replayed from the write-ahead log —
is one :meth:`IncrementalSkyline.bulk_load`: the batch is mapped to its
partitions and each touched partition's local skyline is recomputed in
one vectorised kernel call.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.core.dominance import validate_points
from repro.core.incremental import IncrementalSkyline
from repro.core.kernels import DominanceKernel, get_kernel
from repro.observability.events import get_events
from repro.observability.metrics import get_metrics, observe_partition_skew

if TYPE_CHECKING:  # pragma: no cover - typing only (durability imports store)
    from repro.serving.durability.manager import DatasetLog

__all__ = ["SkylineStore", "StoreSnapshot"]


class StoreSnapshot(NamedTuple):
    """A consistent membership view: compute over it outside the lock.

    ``ids`` ascend (the incremental structure's slot order).
    """

    generation: int
    ids: np.ndarray
    rows: np.ndarray

    def rows_of(self, point_ids: Sequence[int]) -> np.ndarray:
        """The rows of ``point_ids``, in order; raises on unknown ids.

        The shard-side answer assembler: a query result is a list of ids,
        the wire format ships coordinates, and this is the join between
        them over one consistent snapshot — a binary search, since the
        snapshot's ids ascend.
        """
        if len(point_ids) == 0:
            return np.empty((0, self.rows.shape[1] if self.rows.ndim == 2 else 0))
        wanted = np.asarray(point_ids, dtype=np.intp)
        take = np.searchsorted(self.ids, wanted)
        found = take < self.ids.shape[0]
        found[found] = self.ids[take[found]] == wanted[found]
        if not found.all():
            raise KeyError(
                f"point id {int(wanted[~found][0])} not in snapshot generation "
                f"{self.generation}"
            )
        return self.rows[take]


class SkylineStore:
    """Dynamic skyline state for one dataset, behind a generation counter."""

    def __init__(
        self,
        name: str,
        points: np.ndarray | None = None,
        *,
        scheme: str = "angle",
        num_partitions: int = 8,
        kernel: str | DominanceKernel | None = None,
    ):
        self.name = name
        self.scheme = scheme
        self.num_partitions = num_partitions
        # Resolve once at construction: every maintenance comparison and
        # query of this dataset runs one consistent backend.
        self._kernel = get_kernel(kernel)
        self._lock = threading.RLock()
        self._sky: IncrementalSkyline | None = None
        self._generation = 0
        # Durability sink (a DatasetLog) — attached after construction so
        # recovery can replay into a silent store, then start logging.
        self._durability: "DatasetLog | None" = None
        # Id-allocation cursor restored from a snapshot whose membership
        # was empty: applied when the first post-recovery data arrives.
        self._pending_next_id = 0
        if points is not None:
            self.bulk_load(points)

    # -- inspection -------------------------------------------------------------

    @property
    def generation(self) -> int:
        """The current mutation generation (0 before any data arrives)."""
        with self._lock:
            return self._generation

    @property
    def kernel(self) -> DominanceKernel:
        """The dominance backend this store runs on (queries use it too)."""
        return self._kernel

    @property
    def kernel_name(self) -> str:
        """Name of the dominance backend this store runs on."""
        return self._kernel.name

    def __len__(self) -> int:
        with self._lock:
            return len(self._sky) if self._sky is not None else 0

    def __contains__(self, point_id: int) -> bool:
        with self._lock:
            return self._sky is not None and point_id in self._sky

    def snapshot(self) -> StoreSnapshot:
        """Consistent ``(generation, ids, rows)`` copy of the membership."""
        with self._lock:
            if self._sky is None:
                return StoreSnapshot(
                    self._generation, np.empty(0, dtype=np.intp), np.empty((0, 0))
                )
            ids, rows = self._sky.members()
            return StoreSnapshot(self._generation, ids, rows)

    def skyline_snapshot(self) -> Tuple[int, List[int]]:
        """``(generation, skyline ids)`` via the amortised incremental path.

        This is where serving beats re-running the batch pipeline: the
        per-partition local skylines persist across queries, so after a
        mutation only the affected partition's state was recomputed and the
        global answer is one lazy BNL merge (cached until the next
        mutation).
        """
        with self._lock:
            if self._sky is None:
                return self._generation, []
            return self._generation, self._sky.global_skyline()

    # -- mutations --------------------------------------------------------------

    def insert(self, point: Sequence[float] | np.ndarray) -> Tuple[int, int]:
        """Add one service; returns ``(point_id, new generation)``."""
        row = np.asarray(point, dtype=np.float64).reshape(1, -1)
        with self._lock:
            if self._durability is not None:
                self._durability.log_insert(row[0])
            self._ensure_sky(row)
            assert self._sky is not None
            point_id = self._sky.insert(row[0])
            self._generation += 1
            result = point_id, self._generation
            self._maybe_checkpoint()
        self._observe_mutation("insert")
        return result

    def remove(self, point_id: int) -> int:
        """Drop a service by id; returns the new generation."""
        with self._lock:
            if self._sky is None:
                raise KeyError(f"unknown point id {point_id}")
            if point_id not in self._sky:
                raise KeyError(f"unknown point id {point_id}")
            if self._durability is not None:
                self._durability.log_remove(point_id)
            self._sky.remove(point_id)
            self._generation += 1
            generation = self._generation
            self._maybe_checkpoint()
        self._observe_mutation("remove")
        return generation

    def bulk_load(self, points: np.ndarray) -> Tuple[List[int], int]:
        """Add a batch; returns ``(new point ids, new generation)``."""
        pts = validate_points(points)
        with self._lock:
            if self._durability is not None:
                self._durability.log_bulk(pts.tolist())
            self._ensure_sky(pts)
            assert self._sky is not None
            new_ids = self._sky.bulk_load(pts)
            self._generation += 1
            result = new_ids, self._generation
            self._maybe_checkpoint()
        self._observe_mutation("bulk_load", batch=pts.shape[0])
        return result

    # -- durability -------------------------------------------------------------

    def attach_durability(self, log: "DatasetLog") -> None:
        """Start writing mutations through ``log`` (WAL-before-apply).

        Called after construction — and, on the recovery path, only
        *after* replay, so replayed mutations are not re-logged.
        """
        with self._lock:
            self._durability = log

    def restore_members(
        self,
        ids: Sequence[int],
        rows: np.ndarray,
        *,
        generation: int,
        next_id: int,
    ) -> None:
        """Install a snapshot's membership into a still-empty store.

        Rebuilds the incremental structure from the persisted
        ``(ids, rows)`` verbatim (ids are never renumbered) and restores
        the generation counter and id-allocation cursor, so both query
        labelling and future insert ids match the pre-crash store.
        """
        with self._lock:
            if self._sky is not None or self._generation != 0:
                raise ValueError(
                    f"store {self.name!r} is not empty (generation "
                    f"{self._generation}); recovery must target a fresh store"
                )
            if len(ids) > 0:
                from repro.core.partitioning import make_partitioner

                partitioner = make_partitioner(self.scheme, self.num_partitions)
                self._sky = IncrementalSkyline.from_members(
                    partitioner,
                    [int(i) for i in ids],
                    np.asarray(rows, dtype=np.float64),
                    next_id=next_id,
                    kernel=self._kernel,
                )
            else:
                # Nothing lives, but the id cursor must survive: the next
                # arrival re-creates the structure with it (see _ensure_sky).
                self._pending_next_id = next_id
            self._generation = generation

    def checkpoint(self) -> bool:
        """Force a snapshot + WAL truncation now (no-op when not durable)."""
        with self._lock:
            if self._durability is None:
                return False
            self._durability.checkpoint(self._durable_state_locked())
            return True

    def sync_durability(self) -> None:
        """Flush the WAL to stable storage (signal-exit / shutdown path)."""
        with self._lock:
            if self._durability is not None:
                self._durability.sync()

    def store_config(self) -> Dict[str, Any]:
        """Construction parameters, as persisted in register records and
        snapshots so a recovered store is built like the original."""
        return {
            "scheme": self.scheme,
            "num_partitions": self.num_partitions,
            "kernel": self._kernel.name,
        }

    def _maybe_checkpoint(self) -> None:
        """Roll the WAL into a snapshot when enough mutations accumulated.

        Callers hold ``self._lock``; the snapshot I/O therefore blocks
        concurrent queries for its duration, which is the price of a
        crash-consistent membership image and is amortised by
        ``snapshot_every``.
        """
        with self._lock:
            if self._durability is not None:
                self._durability.maybe_checkpoint(self._durable_state_locked)

    def _durable_state_locked(self) -> Dict[str, Any]:
        """The snapshot payload for the current state (lock held)."""
        with self._lock:
            if self._sky is None:
                ids: List[int] = []
                rows: List[List[float]] = []
                skyline: List[int] = []
                next_id = self._pending_next_id
            else:
                member_ids, member_rows = self._sky.members()
                ids = member_ids.tolist()
                rows = member_rows.tolist()
                skyline = self._sky.global_skyline()
                next_id = self._sky.next_id
            return {
                "dataset": self.name,
                "generation": self._generation,
                "next_id": next_id,
                "ids": ids,
                "rows": rows,
                "skyline_ids": skyline,
                "config": self.store_config(),
            }

    # -- telemetry --------------------------------------------------------------

    def partition_sizes(self) -> List[int]:
        """Member count per partition (empty before any data arrives)."""
        with self._lock:
            return self._sky.partition_sizes() if self._sky is not None else []

    def _observe_mutation(self, op: str, **extra: object) -> None:
        """Per-dataset telemetry after a generation bump.

        Refreshes the ``partition.skew.<dataset>.*`` gauges (which may fire
        edge-triggered skew watches) and emits a ``store.generation``
        event.  Runs *outside* ``self._lock``: watch callbacks are caller
        code and must not run under the store lock.
        """
        with self._lock:
            generation = self._generation
            size = len(self._sky) if self._sky is not None else 0
            sizes = self._sky.partition_sizes() if self._sky is not None else []
        observe_partition_skew(
            get_metrics(), sizes, prefix=f"partition.skew.{self.name}"
        )
        get_events().emit(
            "store.generation",
            dataset=self.name,
            op=op,
            generation=generation,
            size=size,
            **extra,
        )

    # -- internals --------------------------------------------------------------

    def _ensure_sky(self, first_batch: np.ndarray) -> None:
        """Fit the partitioner on the first data to arrive.

        Callers already hold ``self._lock``; it is an RLock, so the
        re-acquisition here is free and keeps every write to ``_sky``
        lexically inside a ``with self._lock`` block (the lock-discipline
        contract ``repro lint`` checks).
        """
        with self._lock:
            if self._sky is None:
                # The partitioners load with the first dataset, not at
                # server start.
                from repro.core.partitioning import make_partitioner

                partitioner = make_partitioner(self.scheme, self.num_partitions)
                partitioner.fit(first_batch)
                self._sky = IncrementalSkyline(
                    partitioner,
                    kernel=self._kernel,
                    next_id=self._pending_next_id,
                )
