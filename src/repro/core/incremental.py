"""Incremental (dynamic) skyline maintenance — the §II motivation.

"Given a new service which is added into UDDI, traditional approach has to
compute the global skyline again.  With the MapReduce approach, the new
service is first mapped into a group and added into the local skyline
computation.  Then all local skylines are integrated into the global skyline
at the Reduce stage."

:class:`IncrementalSkyline` keeps, per data-space partition, the full member
list and the current local skyline.  Inserting a service touches only its
partition's local skyline (one window comparison); removing a service
recomputes only the affected partition.  The global skyline is a lazy BNL
merge of the local skylines, recomputed only after mutations — exactly the
Reduce step of the MapReduce pipeline.

Membership is columnar: one capacity-doubling ``(capacity, d)`` row
matrix plus per-slot id, partition, alive and local-skyline arrays.
Slots are appended in increasing id order, so an id's slot is a binary
search and :meth:`IncrementalSkyline.members` is one masked gather.  A
remove only clears the slot's alive flag; once dead slots outnumber live
ones the arrays are compacted, so storage stays proportional to the live
membership.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Tuple

import numpy as np

from repro.core.bnl import bnl_skyline
from repro.core.dominance import validate_points
from repro.core.kernels import DominanceKernel, get_kernel

if TYPE_CHECKING:
    from repro.core.partitioning.base import SpacePartitioner

__all__ = ["IncrementalSkyline"]

#: Smallest slot capacity a structure allocates (or compacts down to).
_MIN_CAPACITY = 16


class IncrementalSkyline:
    """Dynamic skyline over a partitioned service space.

    Parameters
    ----------
    partitioner:
        A :class:`SpacePartitioner`; fitted here on ``initial_points`` if it
        is not fitted yet.  Later insertions reuse the fitted extents (out-
        of-range points clamp into boundary partitions, as in the static
        pipeline).
    initial_points:
        Optional ``(n, d)`` seed data, loaded with :meth:`bulk_load`.
    kernel:
        Dominance backend used for every maintenance comparison (insert
        checks, partition recomputes, the lazy global merge); ``None``
        resolves the process default at construction time.

    Every point receives a stable integer id (its insertion order); removed
    ids are never reused.
    """

    def __init__(
        self,
        partitioner: SpacePartitioner,
        initial_points: np.ndarray | None = None,
        *,
        kernel: str | DominanceKernel | None = None,
        next_id: int = 0,
    ) -> None:
        if next_id < 0:
            raise ValueError(f"next_id must be >= 0, got {next_id}")
        self._partitioner = partitioner
        self._kernel = get_kernel(kernel)
        # Slots [0, _size) are in use, ids strictly ascending; slots past
        # _size are zeroed.  A removed member keeps its slot (alive False)
        # until the next compaction.  Invariant: _sky[s] implies _alive[s].
        self._rows = np.empty((0, 0))
        self._ids = np.empty(0, dtype=np.intp)
        self._part = np.empty(0, dtype=np.intp)
        self._alive = np.empty(0, dtype=bool)
        self._sky = np.empty(0, dtype=bool)
        self._size = 0
        self._live = 0
        # Starts above 0 when a recovery restores the id-allocation
        # cursor of a structure whose membership had emptied out.
        self._next_id = next_id
        self._global_cache: np.ndarray | None = None

        if initial_points is not None:
            pts = validate_points(initial_points)
            if not getattr(partitioner, "_fitted", False):
                partitioner.fit(pts)
            self.bulk_load(pts)
        elif not getattr(partitioner, "_fitted", False):
            raise ValueError(
                "partitioner must be fitted when no initial points are given"
            )

    @classmethod
    def from_members(
        cls,
        partitioner: SpacePartitioner,
        ids: Sequence[int],
        rows: np.ndarray,
        *,
        next_id: int,
        kernel: str | DominanceKernel | None = None,
    ) -> "IncrementalSkyline":
        """Rebuild from an explicit ``(ids, rows)`` membership — recovery.

        The durability snapshot persists exactly what :meth:`members`
        returns plus the id-allocation cursor; this inverts it.  Ids are
        honoured verbatim (they are *not* renumbered) and ``next_id``
        restores the allocation cursor, so inserts after recovery assign
        the same ids the pre-crash structure would have — the id-for-id
        recovery contract.  The partitioner is fitted here on the
        surviving members when not already fitted; partition boundaries
        may therefore differ from the pre-crash structure's (which fitted
        on its *first* batch), which is sound because every external
        answer — the global skyline and the query evaluators — is
        partition-independent.
        """
        pts = validate_points(rows)
        id_arr = np.asarray(ids, dtype=np.intp).reshape(-1)
        if id_arr.shape[0] != pts.shape[0]:
            raise ValueError(
                f"got {id_arr.shape[0]} ids for {pts.shape[0]} rows"
            )
        order = np.argsort(id_arr, kind="stable")
        id_arr, pts = id_arr[order], pts[order]
        if np.any(id_arr[1:] == id_arr[:-1]):
            raise ValueError("member ids must be unique")
        if id_arr.size and next_id <= id_arr[-1]:
            raise ValueError(
                f"next_id {next_id} would re-issue live id {int(id_arr[-1])}"
            )
        if next_id < 0:
            raise ValueError(f"next_id must be >= 0, got {next_id}")
        if not getattr(partitioner, "_fitted", False):
            if pts.shape[0] == 0:
                raise ValueError(
                    "partitioner must be fitted to restore an empty membership"
                )
            partitioner.fit(pts)
        self = cls(partitioner, kernel=kernel)
        if pts.shape[0]:
            self._append(pts, partitioner.assign(pts), ids=id_arr)
            self._settle(np.arange(self._size))
        self._next_id = next_id
        return self

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return self._live

    def __contains__(self, point_id: int) -> bool:
        return self._slot(point_id) is not None

    @property
    def num_partitions(self) -> int:
        return self._partitioner.num_partitions

    @property
    def kernel_name(self) -> str:
        """Name of the dominance backend this structure was built with."""
        return self._kernel.name

    @property
    def next_id(self) -> int:
        """The id the next insert will assign — persisted by snapshots so
        a recovered structure keeps allocating the same ids."""
        return self._next_id

    def point(self, point_id: int) -> np.ndarray:
        return self._rows[self._slot_of(point_id)].copy()

    def local_skyline(self, partition_id: int) -> List[int]:
        """Current local skyline ids of one partition (sorted)."""
        n = self._size
        on = self._sky[:n] & (self._part[:n] == partition_id)
        return self._ids[:n][on].tolist()

    def partition_sizes(self) -> List[int]:
        """Member count per partition id (0 … num_partitions-1).

        The live load-balance picture of the partitioner's boundaries:
        the serving layer turns this into ``partition.skew.<dataset>.*``
        gauges after every mutation, which the skew-threshold watches
        (and eventually the re-balancer) consume.
        """
        n = self._size
        live_parts = self._part[:n][self._alive[:n]]
        return np.bincount(
            live_parts, minlength=self._partitioner.num_partitions
        ).tolist()

    def global_skyline(self) -> List[int]:
        """Ids of the current global skyline (sorted ascending)."""
        if self._global_cache is None:
            candidates = np.flatnonzero(self._sky[: self._size])
            if candidates.size == 0:
                self._global_cache = np.empty(0, dtype=np.intp)
            else:
                result = bnl_skyline(self._rows[candidates], kernel=self._kernel)
                # BNL returns ascending positions and slots ascend with id.
                self._global_cache = self._ids[candidates[result.indices]]
        return self._global_cache.tolist()

    def members(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids, rows)`` of every current member, ids ascending.

        Both arrays are copies: callers may compute over them outside any
        lock guarding this structure without seeing later mutations.
        """
        if not self._live:
            return np.empty(0, dtype=np.intp), np.empty((0, 0))
        alive = self._alive[: self._size]
        return self._ids[: self._size][alive], self._rows[: self._size][alive]

    # -- mutations ---------------------------------------------------------------

    def insert(self, point: np.ndarray) -> int:
        """Add a service; returns its id.  Only its partition is touched."""
        row = np.asarray(point, dtype=np.float64).reshape(1, -1)
        pid = self._partitioner.assign(row)
        slot = self._append(row, pid)[0]
        n = self._size
        sky = np.flatnonzero(self._sky[:n] & (self._part[:n] == pid[0]))
        if sky.size:
            sky_rows = self._rows[sky]
            if self._kernel.any_dominates(sky_rows, row[0]):
                return int(self._ids[slot])  # dominated locally: member, not skyline
            self._sky[sky[self._kernel.dominated_in(sky_rows, row[0])]] = False
        self._sky[slot] = True
        self._global_cache = None
        return int(self._ids[slot])

    def bulk_load(self, points: np.ndarray) -> List[int]:
        """Insert a batch of services at once; returns their ids.

        Equivalent to repeated :meth:`insert` but vectorised: each affected
        partition recomputes its local skyline once, over its previous
        local skyline plus the arrivals (sound because a point dominated
        before the insertions stays dominated afterwards).
        """
        pts = validate_points(points)
        if pts.shape[0] == 0:
            return []
        slots = self._append(pts, self._partitioner.assign(pts))
        n = self._size
        touched = np.isin(self._part[:n], self._part[slots])
        self._sky[slots] = True
        self._settle(np.flatnonzero(self._sky[:n] & touched))
        self._global_cache = None
        return self._ids[slots].tolist()

    def remove(self, point_id: int) -> None:
        """Drop a service; recomputes only its partition's local skyline
        (and only when the removed point was on it)."""
        slot = self._slot_of(point_id)
        self._alive[slot] = False
        self._live -= 1
        if self._sky[slot]:
            # Points the victim dominated may resurface: recompute from members.
            self._sky[slot] = False
            n = self._size
            pid = self._part[slot]
            self._settle(np.flatnonzero(self._alive[:n] & (self._part[:n] == pid)))
        if self._size - self._live > self._live:
            self._compact()
        # Invalidate the lazy global cache unconditionally — also for
        # non-skyline members.  The set of global-skyline *ids* is provably
        # unchanged in that case (the victim is dominated by a local-skyline
        # point, transitively by a global one), but downstream consumers —
        # the serving layer's versioned result cache in particular — treat
        # a cached array as "derived from the current membership", and
        # keeping it alive across *any* remove ties correctness to a
        # subtle transitivity argument instead of an invariant.
        self._global_cache = None

    # -- storage -----------------------------------------------------------------

    def _slot(self, point_id: int) -> int | None:
        """The live slot holding ``point_id``, or ``None``."""
        n = self._size
        slot = int(np.searchsorted(self._ids[:n], point_id))
        if slot < n and self._ids[slot] == point_id and self._alive[slot]:
            return slot
        return None

    def _slot_of(self, point_id: int) -> int:
        slot = self._slot(point_id)
        if slot is None:
            raise KeyError(f"unknown point id {point_id}")
        return slot

    def _append(
        self, rows: np.ndarray, parts: np.ndarray, *, ids: np.ndarray | None = None
    ) -> np.ndarray:
        """Store ``rows`` in fresh slots (new ids unless ``ids`` is given,
        which must ascend past every stored id); returns the slots."""
        m, d = rows.shape
        n = self._size
        if n and d != self._rows.shape[1]:
            raise ValueError(f"expected {self._rows.shape[1]} attributes, got {d}")
        if n + m > self._rows.shape[0] or d != self._rows.shape[1]:
            capacity = max(_MIN_CAPACITY, n + m, 2 * self._rows.shape[0])
            self._reallocate(capacity, d, np.arange(n))
        slots = np.arange(n, n + m)
        if ids is None:
            ids = np.arange(self._next_id, self._next_id + m)
            self._next_id += m
        self._rows[slots] = rows
        self._ids[slots] = ids
        self._part[slots] = parts
        self._alive[slots] = True
        self._size += m
        self._live += m
        return slots

    def _settle(self, slots: np.ndarray) -> None:
        """Recompute the local-skyline flags of ``slots`` partition by
        partition: a slot is flagged iff no other slot of its partition in
        ``slots`` dominates it."""
        if slots.size == 0:
            return
        order = np.argsort(self._part[slots], kind="stable")
        slots = slots[order]
        bounds = np.flatnonzero(np.diff(self._part[slots])) + 1
        self._sky[slots] = False
        for group in np.split(slots, bounds):
            keep = bnl_skyline(self._rows[group], kernel=self._kernel).indices
            self._sky[group[keep]] = True

    def _compact(self) -> None:
        """Drop the dead slots and shrink the capacity to twice the live
        count; ids keep their order."""
        keep = np.flatnonzero(self._alive[: self._size])
        self._reallocate(max(_MIN_CAPACITY, 2 * keep.size), self._rows.shape[1], keep)

    def _reallocate(self, capacity: int, d: int, keep: np.ndarray) -> None:
        """Move slots ``keep`` (ascending), in order, to the front of fresh
        arrays of ``capacity`` slots."""
        m = keep.size
        rows = np.empty((capacity, d))
        if m:
            rows[:m] = self._rows[keep]
        ids = np.zeros(capacity, dtype=np.intp)
        part = np.zeros(capacity, dtype=np.intp)
        alive = np.zeros(capacity, dtype=bool)
        sky = np.zeros(capacity, dtype=bool)
        ids[:m], part[:m] = self._ids[keep], self._part[keep]
        alive[:m], sky[:m] = self._alive[keep], self._sky[keep]
        self._rows, self._ids, self._part = rows, ids, part
        self._alive, self._sky = alive, sky
        self._size = m
