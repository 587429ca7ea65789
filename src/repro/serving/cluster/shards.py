"""Shard placement: which shard owns which dataset rows.

The cluster's unit of placement is the dataset.  A small dataset lives on
exactly one shard (round-robin across registrations); a large one is
*partitioner-keyed*: the coordinator fits one of the paper's space
partitioners (:func:`repro.core.partitioning.make_partitioner`) over the
registered rows with ``num_partitions = number of shards`` and every row
— present and future — routes to the shard its partition id names.  The
shard functions are exactly the partitioning schemes:

* ``"hash"`` — content-hash placement (:class:`RandomPartitioner`), the
  load-balanced default;
* ``"angle"`` / ``"grid"`` / ``"dim"`` — the paper's angular, grid and
  dimensional schemes, which co-locate geometrically-similar rows so each
  shard's local skyline (the fan-out candidate set) stays small.

Identity: the coordinator replicates the single-node id discipline —
global ids are assigned in arrival order and never reused — and keeps the
bidirectional ``global id <-> (shard, local id)`` maps, so a cluster
answer is *bit-identical* to the single-node answer for the same mutation
history (the differential suite compares raw id lists).

Versioning: each placement carries a **generation vector** — the highest
generation observed from every owning shard.  Observations are merged
with ``max`` so the vector never regresses, even when a degraded fan-out
hears from only some shards.

Thread-safety: a :class:`ShardMap` is plain state with no I/O; the
coordinator serialises access under its own lock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.partitioning import SpacePartitioner, make_partitioner

__all__ = [
    "SHARD_FUNCTIONS",
    "DatasetPlacement",
    "ShardMap",
]

#: Partitioner-keyed shard functions (``None`` at register = single-shard).
SHARD_FUNCTIONS = ("hash", "angle", "grid", "dim")

#: Shard function -> partitioning scheme it reuses.
_SHARD_SCHEMES = {
    "hash": "random",
    "angle": "angle",
    "grid": "grid",
    "dim": "dim",
}


@dataclass
class DatasetPlacement:
    """Placement + identity state of one registered dataset."""

    name: str
    #: Shards holding (a slice of) this dataset, ascending.
    shard_ids: Tuple[int, ...]
    #: ``"single"`` or one of :data:`SHARD_FUNCTIONS`.
    shard_fn: str
    #: Fitted row -> shard router (``None`` for single-shard placements).
    partitioner: SpacePartitioner | None = None
    #: Next global id to assign (ids are arrival-ordered, never reused).
    next_global_id: int = 0
    #: Live row count (for stats; the shards hold the actual rows).
    size: int = 0
    #: Highest generation observed per owning shard (monotone).
    generations: Dict[int, int] = field(default_factory=dict)
    #: global id -> (shard id, shard-local id)
    local_of: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    #: (shard id, shard-local id) -> global id, released rows included:
    #: shard-local ids are never reused, so a fan-out answer computed
    #: before a remove still maps.
    global_of: Dict[Tuple[int, int], int] = field(default_factory=dict)

    def generation_vector(self) -> Tuple[int, ...]:
        """Per-shard generations in ``shard_ids`` order — the cache key leg."""
        return tuple(self.generations[s] for s in self.shard_ids)

    def observe_generation(self, shard_id: int, generation: int) -> None:
        """Fold in one shard's reported generation (``max``: never regress)."""
        current = self.generations.get(shard_id, 0)
        self.generations[shard_id] = max(current, int(generation))

    def owner_of(self, row: np.ndarray) -> int:
        """The shard id that owns ``row`` (routing for inserts)."""
        if self.partitioner is None:
            return self.shard_ids[0]
        part = int(self.partitioner.assign(np.asarray(row).reshape(1, -1))[0])
        return self.shard_ids[part]

    def bind(self, shard_id: int, local_id: int) -> int:
        """Record a newly-inserted row; returns its fresh global id."""
        global_id = self.next_global_id
        self.next_global_id += 1
        self.local_of[global_id] = (shard_id, local_id)
        self.global_of[(shard_id, local_id)] = global_id
        self.size += 1
        return global_id

    def release(self, global_id: int) -> Tuple[int, int]:
        """Forget a removed row; returns its ``(shard, local id)`` address."""
        try:
            address = self.local_of.pop(global_id)
        except KeyError:
            raise KeyError(
                f"unknown point id {global_id} in dataset {self.name!r}"
            ) from None
        self.size -= 1
        return address

    def to_global(self, shard_id: int, local_ids: Sequence[int]) -> List[int]:
        """Translate one shard's answer ids into global ids."""
        return [self.global_of[(shard_id, int(i))] for i in local_ids]


class ShardMap:
    """Dataset placements across a fixed set of shards.

    Owns no connections and does no I/O; the coordinator consults it for
    routing and identity under its own lock.
    """

    def __init__(self, num_shards: int):
        if num_shards < 1:
            raise ValueError(f"need at least one shard, got {num_shards}")
        self.num_shards = num_shards
        self._placements: Dict[str, DatasetPlacement] = {}
        self._next_single = 0  # round-robin cursor for single-shard datasets

    def __contains__(self, name: str) -> bool:
        return name in self._placements

    def datasets(self) -> List[str]:
        return sorted(self._placements)

    def discard(self, placement: DatasetPlacement) -> None:
        """Forget ``placement`` (a register that did not complete), unless
        a newer register has replaced it already."""
        if self._placements.get(placement.name) is placement:
            del self._placements[placement.name]

    def placement(self, name: str) -> DatasetPlacement:
        try:
            return self._placements[name]
        except KeyError:
            raise KeyError(name) from None

    def place(
        self,
        name: str,
        points: np.ndarray | None,
        *,
        shard_fn: str | None = None,
    ) -> Tuple[DatasetPlacement, List[np.ndarray | None]]:
        """Create (or replace) a placement; returns it plus per-shard slices.

        The second element has one entry per cluster shard: the rows that
        shard must register (``None`` where the shard does not participate,
        an empty array where it participates but starts empty).  Global ids
        are pre-assigned here in row order — exactly the ids a single-node
        register would hand out.
        """
        if not name:
            raise ValueError("dataset name must be non-empty")
        if shard_fn is not None and shard_fn not in SHARD_FUNCTIONS:
            raise ValueError(
                f"unknown shard function {shard_fn!r}; "
                f"choose from {SHARD_FUNCTIONS} (or omit for single-shard)"
            )
        slices: List[np.ndarray | None] = [None] * self.num_shards
        if shard_fn is None or self.num_shards == 1:
            shard = self._next_single % self.num_shards
            self._next_single += 1
            placement = DatasetPlacement(
                name=name, shard_ids=(shard,), shard_fn="single"
            )
            rows = (
                np.empty((0, 0))
                if points is None
                else np.asarray(points, dtype=np.float64)
            )
            slices[shard] = rows
            for i in range(rows.shape[0]):
                placement.bind(shard, i)
        else:
            if points is None or np.asarray(points).shape[0] == 0:
                raise ValueError(
                    f"shard function {shard_fn!r} needs registration rows "
                    "to fit its partitioner; register points or omit shard_fn"
                )
            rows = np.asarray(points, dtype=np.float64)
            partitioner = make_partitioner(
                _SHARD_SCHEMES[shard_fn], self.num_shards
            )
            partitioner.fit(rows)
            assignment = partitioner.assign(rows)
            placement = DatasetPlacement(
                name=name,
                shard_ids=tuple(range(self.num_shards)),
                shard_fn=shard_fn,
                partitioner=partitioner,
            )
            locals_seen = [0] * self.num_shards
            for shard in range(self.num_shards):
                slices[shard] = rows[assignment == shard]
            # Shard-local ids are the row's rank within its slice — the
            # order the shard's own register will assign them in.
            for row_index in range(rows.shape[0]):
                shard = int(assignment[row_index])
                placement.bind(shard, locals_seen[shard])
                locals_seen[shard] += 1
        for shard in placement.shard_ids:
            placement.generations.setdefault(shard, 0)
        self._placements[name] = placement
        return placement, slices
