"""The three MapReduce skyline algorithms: MR-Dim, MR-Grid, MR-Angle.

This module implements Algorithm 1 of the paper (and its MR-Dim / MR-Grid
siblings) as a two-job chain on the :mod:`repro.mapreduce` engine:

**Job 1 — Partitioning job** (Algorithm 1, lines 1–10)
    *Map*: transform each point to the partition id given by the data-space
    partitioning scheme (for MR-Angle this is where the hyperspherical
    transform of Eq. 1 runs) and emit ``(partition_id, point)``.  For
    MR-Grid, points in dominated (prunable) cells are dropped here.
    *Reduce*: one reduce group per data-space partition computes its local
    skyline with BNL.

**Job 2 — Merging job** (Algorithm 1, lines 11–15)
    *Map*: re-key every local-skyline point to a single key.
    *Reduce*: one reducer merges all local skylines with BNL into the global
    skyline.

Points travel through the engine in *blocks* (``(index_array, row_matrix)``
batches) rather than single rows — the Python-level analogue of Hadoop
object reuse — so the measured task times are dominated by dominance work,
not per-record interpreter overhead.  Block boundaries never affect results.

The driver entry point is :func:`run_mr_skyline`; the returned
:class:`MRSkylineResult` carries the global skyline, the per-partition local
skylines (for the §VI optimality metric), all engine timings/counters, and a
hook into the cluster simulator for the Figure-6 server sweep.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.core.blocks import PointBlock
from repro.core.bnl import bnl_skyline
from repro.core.dominance import DominanceCounter, validate_points
from repro.core.filtering import DEFAULT_FILTER_K, compute_filter_points
from repro.core.kernels import DominanceKernel, get_kernel
from repro.core.partitioning import (
    GridPartitioner,
    SpacePartitioner,
    make_partitioner,
)
from repro.mapreduce.cluster import ClusterSpec
from repro.mapreduce.counters import Counters
from repro.mapreduce.executors import Executor, make_executor
from repro.mapreduce.job import ChainResult, Job, JobConf
from repro.mapreduce.partitioner import KeyFieldPartitioner, SingleReducerPartitioner
from repro.mapreduce.runner import Runner
from repro.mapreduce.simulation import SimulatedPipeline, simulate_pipeline
from repro.mapreduce.tasks import MapContext, Mapper, ReduceContext, Reducer
from repro.mapreduce.types import TaskKind
from repro.observability.metrics import (
    DEFAULT_COUNT_BUCKETS,
    get_metrics,
    observe_partition_skew,
)
from repro.observability.tracing import get_tracer

__all__ = [
    "MRSkylineResult",
    "run_mr_skyline",
    "update_mr_skyline",
    "default_partition_count",
    "PartitionAssignMapper",
    "LocalSkylineReducer",
    "GlobalMergeMapper",
    "GlobalMergeReducer",
    "COUNTER_GROUP",
    "PRUNE_GROUP",
]

#: Counter group used by the skyline jobs.
COUNTER_GROUP = "skyline"

#: Counter group of the filter-pruning stage (the ``prune.*`` family):
#: ``points_pruned`` — rows dropped map-side by the broadcast filter set,
#: ``filter_tests`` — dominance tests the filter stage spent to drop them,
#: ``filter_points`` — size of the broadcast filter set.
PRUNE_GROUP = "prune"

#: Rows per block record flowing through the engine.
DEFAULT_BLOCK_ROWS = 4096

Block = Tuple[np.ndarray, np.ndarray]  # (indices, rows)


def default_partition_count(num_workers: int) -> int:
    """The paper's empirical rule: partitions = 2 × number of nodes."""
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers}")
    return 2 * num_workers


# ---------------------------------------------------------------------------
# Job 1: partition + local skyline
# ---------------------------------------------------------------------------


class PartitionAssignMapper(Mapper):
    """Routes point blocks to data-space partitions.

    Params: ``partitioner`` (fitted :class:`SpacePartitioner`), optional
    ``pruned`` (frozenset of partition ids to drop — MR-Grid's dominated
    cells), optional ``filters`` (``(k, d)`` broadcast filter rows — the
    Ciaccia–Martinenghi map-side pruning set) and ``kernel`` (dominance
    backend name).

    Filter pruning runs *before* partition assignment: a point dominated
    by any filter row can never reach the skyline, so it never enters the
    shuffle at all.  Pruning is exact — every filter row is an actual data
    row, so the global skyline is unchanged.
    """

    def map(self, key: Any, value: Block, ctx: MapContext) -> None:
        block = PointBlock.from_tuple(value)
        partitioner: SpacePartitioner = self.params["partitioner"]
        pruned: frozenset = self.params.get("pruned", frozenset())
        filters = self.params.get("filters")
        ctx.increment(COUNTER_GROUP, "points_mapped", len(block))
        if filters is not None and filters.shape[0] and len(block):
            knl = get_kernel(self.params.get("kernel"))
            local = DominanceCounter()
            alive = knl.filter_survivors(
                filters, block.rows, counter=local, stage="prune"
            )
            ctx.increment(PRUNE_GROUP, "filter_tests", local.tests)
            dead = int(alive.size) - int(alive.sum())
            if dead:
                ctx.increment(COUNTER_GROUP, "points_pruned", dead)
                ctx.increment(PRUNE_GROUP, "points_pruned", dead)
                block = block.take(alive)
        ids = partitioner.assign_block(block)
        # One stable gather groups the rows by partition, input order kept
        # within each; every payload is then a contiguous slice of it.
        routed = block.take(np.argsort(ids, kind="stable"))
        sizes = np.bincount(ids, minlength=partitioner.num_partitions)
        stop = 0
        for pid, size in enumerate(sizes.tolist()):
            start, stop = stop, stop + size
            if not size:
                continue
            if pid in pruned:
                ctx.increment(COUNTER_GROUP, "points_pruned", size)
                continue
            ctx.emit(pid, routed.slice(start, stop).to_tuple())


def _concat_payloads(values: Sequence[Block]) -> Block:
    """A reduce group's shuffled payloads as one ``(indices, rows)`` pair.

    The payloads are adopted as they are: the kernel behind
    :func:`bnl_skyline` validates the merged matrix, one NaN scan per group
    instead of one per payload.  A group of one payload is that payload,
    uncopied.
    """
    if len(values) == 1:
        return values[0]
    return (
        np.concatenate([indices for indices, _ in values]),
        np.concatenate([rows for _, rows in values]),
    )


class LocalSkylineReducer(Reducer):
    """BNL over one data-space partition (Algorithm 1, lines 7–10).

    Params: optional ``window_size`` for bounded-window BNL, optional
    ``kernel`` (dominance backend name).
    """

    def reduce(self, key: Any, values: Sequence[Block], ctx: ReduceContext) -> None:
        indices, rows = _concat_payloads(values)
        result = bnl_skyline(
            rows,
            window_size=self.params.get("window_size"),
            kernel=self.params.get("kernel"),
        )
        ctx.increment(COUNTER_GROUP, "local_dominance_tests", result.dominance_tests)
        ctx.increment(COUNTER_GROUP, "local_skyline_points", int(result.indices.size))
        ctx.increment(COUNTER_GROUP, "local_input_points", int(rows.shape[0]))
        # Per-task skew distribution.  Deliberately impure: process-pool
        # workers observe into a registry copy the driver never merges, so
        # this histogram is best-effort everywhere but the serial runner —
        # the measurement path — which sees every task.  Result data is
        # unaffected (counters travel via ctx and are driver-merged).
        # repro: allow[udf-purity]
        get_metrics().histogram(
            "skyline.dominance_tests_per_task", DEFAULT_COUNT_BUCKETS
        ).observe(result.dominance_tests)
        ctx.emit(key, (indices[result.indices], rows[result.indices]))


# ---------------------------------------------------------------------------
# Job 2: global merge
# ---------------------------------------------------------------------------


class GlobalMergeMapper(Mapper):
    """Re-keys every local skyline block to a single merge key
    (Algorithm 1, lines 12–14: ``output(null, s_i)``)."""

    def map(self, key: Any, value: Block, ctx: MapContext) -> None:
        ctx.emit(0, value)


class TreeMergeMapper(Mapper):
    """Re-keys partition ``p`` to merge group ``p // fan_in``.

    One round of the hierarchical (tree) merge: ``fan_in`` local skylines
    land on each reducer, which BNL-merges them into one partial skyline.
    Rounds repeat until a single group remains.  Params: ``fan_in``.
    """

    def map(self, key: Any, value: Block, ctx: MapContext) -> None:
        ctx.emit(int(key) // int(self.params["fan_in"]), value)


class GlobalMergeReducer(Reducer):
    """BNL merge of all local skylines (Algorithm 1, line 15)."""

    def reduce(self, key: Any, values: Sequence[Block], ctx: ReduceContext) -> None:
        indices, rows = _concat_payloads(values)
        result = bnl_skyline(
            rows,
            window_size=self.params.get("window_size"),
            kernel=self.params.get("kernel"),
        )
        ctx.increment(COUNTER_GROUP, "merge_dominance_tests", result.dominance_tests)
        ctx.increment(COUNTER_GROUP, "global_skyline_points", int(result.indices.size))
        # Best-effort skew histogram; see LocalSkylineReducer.reduce.
        # repro: allow[udf-purity]
        get_metrics().histogram(
            "skyline.dominance_tests_per_task", DEFAULT_COUNT_BUCKETS
        ).observe(result.dominance_tests)
        ctx.emit(0, (indices[result.indices], rows[result.indices]))


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class MRSkylineResult:
    """Everything produced by one MR skyline run."""

    method: str
    global_indices: np.ndarray
    #: Partition id -> ascending point indices of its local skyline.  With
    #: a non-empty filter set (``filter_points > 0``) these are the local
    #: skylines of the rows that survived map-side pruning, not of every
    #: partition member: a filter point is sound for the global skyline
    #: only, so a row it pruned can still belong to its own partition's
    #: local skyline.
    local_skylines: Dict[int, np.ndarray]
    partition_ids: np.ndarray
    chain: ChainResult
    counters: Counters
    num_partitions: int
    num_workers: int
    points_pruned: int = 0
    partitioner: SpacePartitioner | None = field(default=None, repr=False)
    #: Executor the engine ran under ("serial" / "threads" / "processes").
    executor: str = "serial"
    #: Dominance backend every UDF ran with ("scalar" / "block").
    kernel: str = "scalar"
    #: Size of the broadcast filter set (0 — filter pruning disabled).
    filter_points: int = 0

    @property
    def processing_time_s(self) -> float:
        """Measured wall-clock of the whole two-job chain (driver-side)."""
        return self.chain.wall_s

    @property
    def dominance_tests(self) -> int:
        return self.counters.value(
            COUNTER_GROUP, "local_dominance_tests"
        ) + self.counters.value(COUNTER_GROUP, "merge_dominance_tests")

    @property
    def map_busy_s(self) -> float:
        return self.chain.phase_stats(TaskKind.MAP).busy_s

    @property
    def reduce_busy_s(self) -> float:
        return self.chain.phase_stats(TaskKind.REDUCE).busy_s

    def global_points(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=np.float64)[self.global_indices]

    def simulate(self, cluster: ClusterSpec) -> SimulatedPipeline:
        """Replay the measured chain on a simulated cluster (Figure 6)."""
        return simulate_pipeline(self.chain.results, cluster)

    def summary(self) -> dict:
        return {
            "method": self.method,
            "executor": self.executor,
            "kernel": self.kernel,
            "filter_points": self.filter_points,
            "partitions": self.num_partitions,
            "workers": self.num_workers,
            "global_skyline": int(self.global_indices.size),
            "local_skyline_total": int(
                sum(v.size for v in self.local_skylines.values())
            ),
            "points_pruned": self.points_pruned,
            "dominance_tests": self.dominance_tests,
            "processing_time_s": round(self.processing_time_s, 6),
        }


@contextmanager
def _owned_runner(runner: Runner, owned: bool) -> Iterator[Runner]:
    """Release a runner (and its executor pool) only if we created it."""
    try:
        yield runner
    finally:
        if owned:
            runner.close()


def _block_records(points: np.ndarray, block_rows: int) -> List[Tuple[int, Block]]:
    """Chunk the dataset into engine records of ``block_rows`` points."""
    n = points.shape[0]
    records = []
    for start in range(0, n, block_rows):
        stop = min(start + block_rows, n)
        indices = np.arange(start, stop, dtype=np.intp)
        records.append((start, (indices, points[start:stop])))
    return records or [(0, (np.empty(0, dtype=np.intp), points[:0]))]


def run_mr_skyline(
    points: np.ndarray,
    *,
    method: str = "angle",
    num_workers: int = 4,
    num_partitions: int | None = None,
    runner: Runner | None = None,
    window_size: int | None = None,
    use_combiner: bool = False,
    prune_grid_cells: bool = True,
    block_rows: int = DEFAULT_BLOCK_ROWS,
    partitioner: SpacePartitioner | None = None,
    partitioner_kwargs: dict | None = None,
    merge_strategy: str = "single",
    merge_fan_in: int = 8,
    executor: str | Executor | None = None,
    kernel: str | DominanceKernel | None = None,
    prune_filter_k: int | None = None,
) -> MRSkylineResult:
    """Run one of the MapReduce skyline algorithms end to end.

    Parameters
    ----------
    points:
        ``(n, d)`` non-negative data, minimisation in every attribute.
    method:
        ``"dim"`` (MR-Dim), ``"grid"`` (MR-Grid), ``"angle"`` (MR-Angle) or
        ``"random"`` (ablation baseline).  Ignored when ``partitioner`` is
        given explicitly.
    num_workers:
        Cluster-node count the run models; the default partition count
        follows the paper's ``2 × workers`` rule.
    num_partitions:
        Override the partition-count rule.
    runner:
        Engine runner.  By default one is built from ``executor`` (or, when
        that is ``None`` too, from ``$REPRO_EXECUTOR``, falling back to
        serial — the measurement configuration with clean per-task timings
        for the simulator).  A runner built here owns one executor for the
        whole pipeline, so pool workers are reused across the chained jobs.
    window_size:
        Bounded BNL window for local and merge stages (ablation).
    use_combiner:
        Run the local-skyline reducer as a map-side combiner too
        (ablation; the paper's pipeline does not combine map-side).
    prune_grid_cells:
        For MR-Grid, drop points of dominated cells at Map time (§III-B).
    merge_strategy:
        ``"single"`` — Algorithm 1's literal merge: one reducer BNL-merges
        every local skyline (the measured serial bottleneck at scale).
        ``"tree"`` — hierarchical merge: rounds of ``merge_fan_in``-way
        partial merges until one group remains, trading extra job
        overheads for a parallelisable merge (our extension; the paper
        hints at iterative MapReduce via Twister for exactly this).
    merge_fan_in:
        Local skylines merged per reducer per tree round.
    executor:
        Executor name (``"serial"`` / ``"threads"`` / ``"processes"``) or a
        ready :class:`~repro.mapreduce.executors.Executor` instance for the
        default runner; ignored when ``runner`` is given.
    kernel:
        Dominance backend for every UDF (name or instance); ``None``
        resolves the process default (``--kernel`` / ``$REPRO_KERNEL``,
        else ``scalar``).  Results are identical across backends.
    prune_filter_k:
        Size of the Ciaccia–Martinenghi filter set broadcast to map tasks
        (0 disables pruning).  ``None`` picks a kernel-dependent default:
        :data:`~repro.core.filtering.DEFAULT_FILTER_K` under a batch
        kernel, 0 under the scalar reference, which runs the paper-literal
        pipeline (Algorithm 1 has no filter stage).

    Returns
    -------
    :class:`MRSkylineResult`
    """
    pts = validate_points(points)
    knl = get_kernel(kernel)
    if prune_filter_k is None:
        # Kernel-dependent default: the scalar reference runs the
        # paper-literal pipeline (no pruning stage at all); batch kernels
        # get the full Ciaccia–Martinenghi treatment out of the box.
        prune_filter_k = DEFAULT_FILTER_K if knl.batch else 0
    if num_partitions is None:
        num_partitions = default_partition_count(num_workers)
    if merge_strategy not in ("single", "tree"):
        raise ValueError(
            f"unknown merge_strategy {merge_strategy!r}; use 'single' or 'tree'"
        )
    if merge_fan_in < 2:
        raise ValueError(f"merge_fan_in must be >= 2, got {merge_fan_in}")
    owns_runner = runner is None
    if runner is None:
        runner = Runner(make_executor(executor, num_workers=num_workers))

    with _owned_runner(runner, owns_runner), get_tracer().span(
        f"mr-skyline:{method if partitioner is None else partitioner.scheme}",
        kind="pipeline",
        n=int(pts.shape[0]),
        d=int(pts.shape[1]),
        workers=num_workers,
        merge_strategy=merge_strategy,
        executor=runner.executor_name,
        kernel=knl.name,
    ) as pipeline_span:
        if partitioner is None:
            partitioner = make_partitioner(
                method, num_partitions, **(partitioner_kwargs or {})
            )
        # One pass over the input: where the fit already derived every
        # point's partition (MR-Angle's quantile sectors) it hands the ids
        # back; the partitioner itself ships to map tasks without them.
        partition_ids = partitioner.fit_assign(pts)
        effective_partitions = partitioner.num_partitions

        pruned: frozenset = frozenset()
        if prune_grid_cells and isinstance(partitioner, GridPartitioner):
            pruned = frozenset(int(c) for c in partitioner.pruned_cells())

        # Driver-side filter selection (the Hadoop analogue: compute the
        # broadcast set once, ship it through the distributed cache).
        filters: np.ndarray | None = None
        filter_count = 0
        if prune_filter_k:
            filters = compute_filter_points(pts, k=prune_filter_k, kernel=knl)
            filter_count = int(filters.shape[0])

        params = {
            "partitioner": partitioner,
            "pruned": pruned,
            "window_size": window_size,
            "kernel": knl.name,
            "filters": filters,
        }
        records = _block_records(pts, block_rows)

        job1 = Job(
            name=f"mr-{partitioner.scheme}-partition",
            mapper=PartitionAssignMapper,
            reducer=LocalSkylineReducer,
            combiner=LocalSkylineReducer if use_combiner else None,
            conf=JobConf(
                num_reducers=effective_partitions,
                num_map_tasks=max(1, min(num_workers, len(records))),
                partitioner=KeyFieldPartitioner(),
                params=params,
            ),
        )
        result1 = runner.run(job1, records=records)

        merge_results = []
        intermediate = list(result1.output_pairs())
        if merge_strategy == "tree":
            # Hierarchical rounds: fan_in local skylines per reducer until
            # only a handful of groups remain, then the final single-reducer
            # merge.
            round_no = 0
            while len(intermediate) > merge_fan_in:
                # Re-key to dense group ids so `key // fan_in` packs evenly.
                intermediate = [
                    (i, block) for i, (_, block) in enumerate(intermediate)
                ]
                groups = -(-len(intermediate) // merge_fan_in)  # ceil
                job = Job(
                    name=f"mr-{partitioner.scheme}-treemerge-{round_no}",
                    mapper=TreeMergeMapper,
                    reducer=LocalSkylineReducer,
                    conf=JobConf(
                        num_reducers=groups,
                        num_map_tasks=max(1, min(num_workers, len(intermediate))),
                        partitioner=KeyFieldPartitioner(),
                        params={
                            "window_size": window_size,
                            "fan_in": merge_fan_in,
                            "kernel": knl.name,
                        },
                    ),
                )
                result = runner.run(job, records=intermediate)
                merge_results.append(result)
                intermediate = list(result.output_pairs())
                round_no += 1

        job2 = Job(
            name=f"mr-{partitioner.scheme}-merge",
            mapper=GlobalMergeMapper,
            reducer=GlobalMergeReducer,
            conf=JobConf(
                num_reducers=1,
                num_map_tasks=max(1, min(num_workers, len(intermediate))),
                partitioner=SingleReducerPartitioner(),
                params={"window_size": window_size, "kernel": knl.name},
            ),
        )
        result2 = runner.run(job2, records=intermediate)
        chain = ChainResult(results=[result1, *merge_results, result2])
        counters = Counters()
        for res in chain.results:
            counters.merge(res.counters)

        local_skylines: Dict[int, np.ndarray] = {
            int(pid): np.asarray(block[0], dtype=np.intp)
            for pid, block in result1.output_pairs()
        }
        merged_blocks = list(result2.output_values())
        if merged_blocks:
            global_indices = np.sort(
                np.concatenate([b[0] for b in merged_blocks]).astype(np.intp)
            )
        else:
            global_indices = np.empty(0, dtype=np.intp)

        # Data-space skew — the quantity the three partitioning schemes
        # compete on (records per partition, max/min ratio, imbalance).
        skew = observe_partition_skew(
            get_metrics(),
            np.bincount(partition_ids, minlength=effective_partitions),
        )
        if filter_count:
            counters.increment(PRUNE_GROUP, "filter_points", filter_count)
        pipeline_span.set_attrs(
            scheme=partitioner.scheme,
            partitions=effective_partitions,
            global_skyline=int(global_indices.size),
            dominance_tests=counters.value(COUNTER_GROUP, "local_dominance_tests")
            + counters.value(COUNTER_GROUP, "merge_dominance_tests"),
            filter_points=filter_count,
            points_pruned=counters.value(COUNTER_GROUP, "points_pruned"),
            **{f"skew_{k}": v for k, v in skew.items()},
        )

    return MRSkylineResult(
        method=partitioner.scheme,
        global_indices=global_indices,
        local_skylines=local_skylines,
        partition_ids=partition_ids,
        chain=chain,
        counters=counters,
        num_partitions=effective_partitions,
        num_workers=num_workers,
        points_pruned=counters.value(COUNTER_GROUP, "points_pruned"),
        partitioner=partitioner,
        executor=result2.executor,
        kernel=knl.name,
        filter_points=filter_count,
    )


def update_mr_skyline(
    previous: MRSkylineResult,
    points: np.ndarray,
    new_points: np.ndarray,
    *,
    runner: Runner | None = None,
    window_size: int | None = None,
    block_rows: int = DEFAULT_BLOCK_ROWS,
    kernel: str | DominanceKernel | None = None,
) -> MRSkylineResult:
    """Absorb a batch of new services without recomputing from scratch (§II).

    "Given a new service which is added into UDDI, traditional approach has
    to compute the global skyline again.  With the MapReduce approach, the
    new service is first mapped into a group and added into the local
    skyline computation.  Then all local skylines are integrated into the
    global skyline at the Reduce stage."

    Only the partitions that receive new points re-run their local-skyline
    BNL — and only over their *previous local skyline* plus the arrivals
    (sound because a point dominated before the insertions stays dominated).
    Untouched partitions reuse their local skylines verbatim; the global
    merge then runs as usual.

    Parameters
    ----------
    previous:
        Result of :func:`run_mr_skyline` (or a prior update) over ``points``.
    points:
        The point set ``previous`` was computed over, shape ``(n, d)``.
    new_points:
        Arrivals, shape ``(m, d)``.

    Returns
    -------
    :class:`MRSkylineResult` whose indices refer to
    ``np.vstack([points, new_points])``.  Removals are out of scope here —
    they need full partition membership, which is what
    :class:`repro.core.incremental.IncrementalSkyline` keeps.

    The default runner resolves its executor from ``$REPRO_EXECUTOR``
    (serial when unset), like :func:`run_mr_skyline`.  ``kernel`` defaults
    to the backend ``previous`` ran with, keeping an update chain on one
    backend unless explicitly switched.
    """
    pts = validate_points(points)
    fresh = validate_points(new_points)
    if fresh.shape[1] != pts.shape[1]:
        raise ValueError(
            f"new points have {fresh.shape[1]} dims, expected {pts.shape[1]}"
        )
    if previous.partitioner is None:
        raise ValueError("previous result carries no partitioner")
    if previous.partition_ids.shape[0] != pts.shape[0]:
        raise ValueError(
            f"previous result covers {previous.partition_ids.shape[0]} points, "
            f"got {pts.shape[0]}"
        )
    runner = runner or Runner()
    partitioner = previous.partitioner
    knl = get_kernel(kernel if kernel is not None else previous.kernel)
    offset = pts.shape[0]

    new_ids = partitioner.assign(fresh)
    pruned: frozenset = frozenset()
    if isinstance(partitioner, GridPartitioner):
        # Fit-time occupancy only grows, so the original pruned set stays
        # sound for arrivals (it may merely miss new pruning opportunities).
        pruned = frozenset(int(c) for c in partitioner.pruned_cells())

    counters = Counters()
    affected = sorted(
        int(p) for p in np.unique(new_ids) if int(p) not in pruned
    )
    n_pruned = int(sum(1 for p in new_ids if int(p) in pruned))
    if n_pruned:
        counters.increment(COUNTER_GROUP, "points_pruned", n_pruned)

    # Build the affected partitions' update records: previous local skyline
    # blocks plus the new arrivals, keyed by partition id.
    records: List[Tuple[int, Block]] = []
    for pid in affected:
        old_sky = previous.local_skylines.get(pid, np.empty(0, dtype=np.intp))
        if old_sky.size:
            records.append((pid, (old_sky, pts[old_sky])))
        mask = new_ids == pid
        idx = np.flatnonzero(mask) + offset
        for start in range(0, idx.size, block_rows):
            chunk = idx[start : start + block_rows]
            records.append((pid, (chunk.astype(np.intp), fresh[chunk - offset])))

    results = []
    local_skylines: Dict[int, np.ndarray] = dict(previous.local_skylines)
    if records:
        update_job = Job(
            name=f"mr-{partitioner.scheme}-update",
            mapper=IdentityBlockMapper,
            reducer=LocalSkylineReducer,
            conf=JobConf(
                num_reducers=max(affected) + 1,
                num_map_tasks=max(1, min(previous.num_workers, len(records))),
                partitioner=KeyFieldPartitioner(),
                params={"window_size": window_size, "kernel": knl.name},
            ),
        )
        update_result = runner.run(update_job, records=records)
        results.append(update_result)
        counters.merge(update_result.counters)
        for pid, block in update_result.output_pairs():
            local_skylines[int(pid)] = np.asarray(block[0], dtype=np.intp)

    # Global merge over every local skyline (updated + untouched).
    combined = np.vstack([pts, fresh])
    merge_records = [
        (pid, (sky, combined[sky])) for pid, sky in sorted(local_skylines.items())
        if sky.size
    ]
    merge_job = Job(
        name=f"mr-{partitioner.scheme}-merge",
        mapper=GlobalMergeMapper,
        reducer=GlobalMergeReducer,
        conf=JobConf(
            num_reducers=1,
            num_map_tasks=max(1, min(previous.num_workers, max(len(merge_records), 1))),
            partitioner=SingleReducerPartitioner(),
            params={"window_size": window_size, "kernel": knl.name},
        ),
    )
    merge_result = runner.run(merge_job, records=merge_records)
    results.append(merge_result)
    counters.merge(merge_result.counters)

    merged_blocks = list(merge_result.output_values())
    if merged_blocks:
        global_indices = np.sort(
            np.concatenate([b[0] for b in merged_blocks]).astype(np.intp)
        )
    else:
        global_indices = np.empty(0, dtype=np.intp)

    return MRSkylineResult(
        method=partitioner.scheme,
        global_indices=global_indices,
        local_skylines=local_skylines,
        partition_ids=np.concatenate([previous.partition_ids, new_ids]),
        chain=ChainResult(results=results),
        counters=counters,
        num_partitions=previous.num_partitions,
        num_workers=previous.num_workers,
        points_pruned=previous.points_pruned + n_pruned,
        partitioner=partitioner,
        executor=merge_result.executor,
        kernel=knl.name,
        filter_points=previous.filter_points,
    )


class IdentityBlockMapper(Mapper):
    """Passes pre-keyed point blocks through unchanged (update pipeline)."""

    def map(self, key: Any, value: Block, ctx: MapContext) -> None:
        ctx.emit(int(key), value)
