"""Sort-based shuffle: map outputs → grouped, key-sorted reduce inputs.

Two shuffle implementations share one ordering and one stats model:

* :func:`shuffle` — the batch (barrier) form: the runner hands over *every*
  map task's per-partition buffers at once; they are merged per reduce
  partition, sorted by key, and grouped, exactly like Hadoop's merge phase.
* :class:`StreamingShuffle` — the incremental form: each map task's buffers
  are ingested (sorted per segment) *as the task finishes*, so the sort work
  overlaps the map phase; :meth:`StreamingShuffle.finalize` then k-way
  merges the pre-sorted segments of one partition, letting its reduce task
  launch without waiting for the other partitions to be merged.  The two
  forms produce identical grouped output for identical map outputs,
  regardless of ingestion order (segments are always merged in map-task
  order, so value order within a key is stable).

Key ordering is total even for heterogeneous or partially-ordered key sets:
keys compare by type name first, then natural ``<`` within a type, falling
back to ``repr`` for same-type keys that raise ``TypeError`` (e.g. the
tuples ``(1, "a")`` and ``("a", 1)``).  Every sort and merge path uses this
one ordering, so pre-sorted segments interleave consistently.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass
from typing import Any, Hashable, List, Tuple

from repro.mapreduce.serialization import estimate_nbytes
from repro.observability.metrics import get_metrics

Pair = Tuple[Hashable, Any]
Grouped = List[Tuple[Hashable, List[Any]]]


@dataclass(slots=True)
class ShuffleStats:
    """Volume accounting for one job's shuffle."""

    records: int = 0
    bytes: int = 0
    segments: int = 0
    #: Map outputs offered more than once (late speculative losers) and
    #: dropped before commit — always 0 in a fault-free run.
    duplicate_segments: int = 0

    def as_dict(self) -> dict:
        """JSON-ready view (attached to the shuffle phase's trace span)."""
        return {
            "records": self.records,
            "bytes": self.bytes,
            "segments": self.segments,
            "duplicate_segments": self.duplicate_segments,
        }

    def observe(self, registry) -> None:
        """Accumulate this shuffle's volume into a metrics registry."""
        registry.counter("shuffle.records").inc(self.records)
        registry.counter("shuffle.bytes").inc(self.bytes)
        registry.counter("shuffle.segments").inc(self.segments)
        registry.counter("shuffle.duplicate_segments").inc(
            self.duplicate_segments
        )


class _SortKey:
    """A totally-ordered proxy for one arbitrary hashable key.

    Ordering: type name first (so mixed-type key sets never compare
    cross-type), then the key's natural ``<`` within a type, and — as the
    docstring of this module promises — a ``repr`` fallback for same-type
    keys whose comparison raises ``TypeError`` (mutually incomparable
    tuples, sets, custom objects).  The repr fallback trades semantic order
    for totality, which is all the shuffle needs: a deterministic order
    that groups equal keys adjacently.
    """

    __slots__ = ("_tname", "_key")

    def __init__(self, key: Hashable):
        self._tname = type(key).__name__
        self._key = key

    def __lt__(self, other: "_SortKey") -> bool:
        if self._tname != other._tname:
            return self._tname < other._tname
        try:
            return bool(self._key < other._key)
        except TypeError:
            return repr(self._key) < repr(other._key)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _SortKey):
            return NotImplemented
        return self._tname == other._tname and self._key == other._key


def _sort_token(key: Hashable) -> _SortKey:
    """The total-order key used by every shuffle sort and merge path."""
    return _SortKey(key)


def _safe_sort(pairs: List[Pair]) -> List[Pair]:
    """Stable-sort pairs by the shuffle's total key order.

    Always sorts through :func:`_sort_token` so segment sorts and k-way
    merges agree on one ordering — a segment sorted by natural ``<`` and
    merged by a different order would interleave wrongly.  Fewer than two
    pairs are already in order.
    """
    if len(pairs) < 2:
        return list(pairs)
    return sorted(pairs, key=lambda kv: _sort_token(kv[0]))


def group_sorted(pairs: List[Pair]) -> Grouped:
    """Group a key-sorted pair list into ``(key, [values])`` runs."""
    grouped: Grouped = []
    current_key: Hashable = None
    current_values: List[Any] | None = None
    for key, value in pairs:
        if current_values is not None and key == current_key:
            current_values.append(value)
        else:
            current_values = [value]
            current_key = key
            grouped.append((key, current_values))
    return grouped


def shuffle(
    map_outputs: List[List[List[Pair]]],
    num_partitions: int,
) -> Tuple[List[Grouped], ShuffleStats]:
    """Merge map-side buffers into grouped reduce inputs.

    Parameters
    ----------
    map_outputs:
        ``map_outputs[m][p]`` is map task *m*'s buffer destined for reduce
        partition *p*.
    num_partitions:
        Number of reduce partitions ``R``.

    Returns
    -------
    (per-partition grouped inputs, shuffle statistics)
    """
    stats = ShuffleStats()
    partitions: List[Grouped] = []
    for part in range(num_partitions):
        segments = [out[part] for out in map_outputs if out[part]]
        stats.segments += len(segments)
        stats.records += sum(len(seg) for seg in segments)
        for seg in segments:
            for key, value in seg:
                stats.bytes += estimate_nbytes(key) + estimate_nbytes(value)
        flat = [pair for seg in segments for pair in seg]
        partitions.append(group_sorted(_safe_sort(flat)))
    stats.observe(get_metrics())
    return partitions, stats


class StreamingShuffle:
    """Incremental shuffle: ingest map outputs as tasks finish.

    The executor-based runner feeds each finished map task's per-partition
    buffers into :meth:`ingest`, where they are sorted *segment by segment*
    — overlapping the sort work with still-running map tasks.  Once every
    map task has been ingested (:attr:`complete`), :meth:`finalize` k-way
    merges one partition's pre-sorted segments and groups it, so a reduce
    task can be launched per partition as soon as that partition is merged,
    without waiting for the rest.

    Output parity with the batch :func:`shuffle` is exact and ingestion-
    order independent: segments are merged in *map-task index* order with a
    stable merge, which reproduces the batch path's stable sort over the
    map-order concatenation — same key order, same value order within a
    key, same :class:`ShuffleStats` accounting.

    Shared state (segment buffers, stats) mutates only under
    ``self._lock`` — the engine's lock-discipline contract, enforced
    statically by ``repro lint`` — so a future runner variant may ingest
    from executor callbacks on worker threads without re-auditing this
    class.  The lock is never held across the k-way merge itself, only
    across buffer handoff.
    """

    def __init__(self, num_map_tasks: int, num_partitions: int):
        if num_map_tasks < 0:
            raise ValueError(f"num_map_tasks must be >= 0, got {num_map_tasks}")
        if num_partitions <= 0:
            raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")
        self.num_map_tasks = num_map_tasks
        self.num_partitions = num_partitions
        self.stats = ShuffleStats()
        # Per partition: map-task index → sorted segment.
        self._segments: List[dict[int, List[Pair]]] = [
            {} for _ in range(num_partitions)
        ]
        self._ingested: set[int] = set()
        self._lock = threading.RLock()

    @property
    def complete(self) -> bool:
        """True once every map task's buffers have been ingested."""
        return len(self._ingested) >= self.num_map_tasks

    def ingest(
        self,
        map_index: int,
        buffers: List[List[Pair]],
        *,
        on_duplicate: str = "raise",
        nbytes: int | None = None,
    ) -> None:
        """Absorb one map task's per-partition buffers (sorting them now).

        ``nbytes`` is the buffers' :func:`estimate_nbytes` total when the
        caller has already counted it — a map task's ``bytes_out`` is
        exactly that sum — so no pair is walked twice; ``None`` walks them
        here.

        ``on_duplicate`` controls what a second ingest of the same map index
        does: ``"raise"`` (the default — a duplicate is a runner bug in a
        fault-free world) or ``"discard"`` — the speculative-execution
        contract, where a late losing attempt's output must be dropped
        before commit rather than double-counted.  Discards are tallied in
        ``stats.duplicate_segments``.
        """
        if on_duplicate not in ("raise", "discard"):
            raise ValueError(
                f'on_duplicate must be "raise" or "discard", got {on_duplicate!r}'
            )
        with self._lock:
            if map_index in self._ingested:
                if on_duplicate == "discard":
                    self.stats.duplicate_segments += sum(
                        1 for seg in buffers if seg
                    )
                    return
                raise ValueError(f"map task {map_index} already ingested")
            if len(buffers) != self.num_partitions:
                raise ValueError(
                    f"map task {map_index} produced {len(buffers)} buffers "
                    f"for {self.num_partitions} partitions"
                )
            if nbytes is None:
                nbytes = sum(
                    estimate_nbytes(key) + estimate_nbytes(value)
                    for seg in buffers
                    for key, value in seg
                )
            self.stats.bytes += nbytes
            for part, seg in enumerate(buffers):
                if not seg:
                    continue
                self.stats.segments += 1
                self.stats.records += len(seg)
                self._segments[part][map_index] = _safe_sort(seg)
            self._ingested.add(map_index)

    def finalize(self, part: int) -> Grouped:
        """Merge + group one partition; legal only once :attr:`complete`.

        Frees the partition's buffered segments, so each partition can be
        finalized exactly once.
        """
        # Detach the partition's buffers under the lock; merge outside it
        # (the k-way merge is the expensive part and touches nothing shared).
        with self._lock:
            if not self.complete:
                raise RuntimeError(
                    f"cannot finalize partition {part}: "
                    f"{self.num_map_tasks - len(self._ingested)} map tasks "
                    "pending"
                )
            segments = self._segments[part]
            self._segments[part] = {}
        streams = [segments[i] for i in sorted(segments)]
        if len(streams) > 1:
            merged = list(heapq.merge(*streams, key=lambda kv: _sort_token(kv[0])))
        else:
            # At most one segment, sorted at ingest: nothing to merge.
            merged = [pair for stream in streams for pair in stream]
        return group_sorted(merged)

    def finalize_all(self) -> List[Grouped]:
        """Merge + group every partition, in partition order."""
        return [self.finalize(part) for part in range(self.num_partitions)]

    def close(self) -> None:
        """Release buffered segments."""
        with self._lock:
            self._segments = [{} for _ in range(self.num_partitions)]

    def __enter__(self) -> "StreamingShuffle":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
