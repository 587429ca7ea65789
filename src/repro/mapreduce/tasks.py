"""Mapper / combiner / reducer interfaces and their execution contexts.

User code subclasses :class:`Mapper` and :class:`Reducer` (a combiner is just
a :class:`Reducer` run map-side).  Classes — not instances — are attached to
the :class:`~repro.mapreduce.job.Job`, so they remain picklable for the
multiprocessing runner; per-job parameters travel in ``JobConf.params`` and
are available as ``self.params`` after ``setup``.

The :class:`MapContext` buffers emitted pairs per reduce partition and runs
the combiner once over them at task end.  This is where the paper's "local
skyline computation" middle stage plugs in.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Hashable, Iterable, List, Tuple

from repro.mapreduce.counters import Counters
from repro.mapreduce.errors import TaskError
from repro.mapreduce.serialization import estimate_nbytes
from repro.mapreduce.types import TaskKind, TaskStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (job.py imports us)
    from repro.mapreduce.inputs import InputSplit
    from repro.mapreduce.job import Job

Pair = Tuple[Hashable, Any]


class _TaskBase:
    """Shared lifecycle for mappers and reducers."""

    def __init__(self) -> None:
        self.params: Dict[str, Any] = {}

    def setup(self, params: Dict[str, Any]) -> None:
        """Called once before the first record; default stores ``params``."""
        self.params = params

    def cleanup(self, ctx: "_ContextBase") -> None:
        """Called once after the last record; default does nothing."""


class Mapper(_TaskBase):
    """Transforms one input record into zero or more intermediate pairs."""

    def map(self, key: Hashable, value: Any, ctx: "MapContext") -> None:
        raise NotImplementedError


class Reducer(_TaskBase):
    """Folds all values sharing a key into zero or more output pairs."""

    def reduce(self, key: Hashable, values: Iterable[Any], ctx: "ReduceContext") -> None:
        raise NotImplementedError


#: A combiner has the reducer interface; the alias documents intent.
Combiner = Reducer


class _ContextBase:
    """State shared by map and reduce contexts: counters and parameters."""

    def __init__(self, params: Dict[str, Any], counters: Counters):
        self.params = params
        self.counters = counters

    def increment(self, group: str, name: str, amount: int = 1) -> None:
        """Bump a user counter (merged into the job counters at task end)."""
        self.counters.increment(group, name, amount)


class MapContext(_ContextBase):
    """Collects a map task's emits into per-reduce-partition buffers."""

    def __init__(
        self,
        params: Dict[str, Any],
        counters: Counters,
        num_partitions: int,
        partition_fn: Callable[[Hashable, int], int],
        combiner_factory: Callable[[], Reducer] | None = None,
    ):
        super().__init__(params, counters)
        if num_partitions <= 0:
            raise ValueError(f"num_partitions must be positive, got {num_partitions}")
        self.num_partitions = num_partitions
        self._partition_fn = partition_fn
        self._combiner_factory = combiner_factory
        self._buffers: List[List[Pair]] = [[] for _ in range(num_partitions)]
        self.records_out = 0

    def emit(self, key: Hashable, value: Any) -> None:
        """Route one intermediate pair to its reduce partition."""
        part = self._partition_fn(key, self.num_partitions)
        if not 0 <= part < self.num_partitions:
            raise TaskError(
                "map", f"partitioner returned {part} outside [0, {self.num_partitions})"
            )
        self._buffers[part].append((key, value))
        self.records_out += 1

    def finish(self) -> List[List[Pair]]:
        """Combine pass at task end; returns the per-partition pair lists."""
        if self._combiner_factory is None:
            return self._buffers
        self.counters.framework("combiner_invocations")
        for part in range(self.num_partitions):
            buffer = self._buffers[part]
            if not buffer:
                continue
            combined = _combine(
                buffer, self._combiner_factory, self.params, self.counters
            )
            self.counters.framework("combiner_in_records", len(buffer))
            self.counters.framework("combiner_out_records", len(combined))
            self._buffers[part] = combined
        # Combined output still counts once toward records_out semantics:
        self.records_out = sum(len(b) for b in self._buffers)
        return self._buffers


class ReduceContext(_ContextBase):
    """Collects a reduce task's output pairs."""

    def __init__(self, params: Dict[str, Any], counters: Counters):
        super().__init__(params, counters)
        self.output: List[Pair] = []

    def emit(self, key: Hashable, value: Any) -> None:
        self.output.append((key, value))


def _combine(
    pairs: List[Pair],
    combiner_factory: Callable[[], Reducer],
    params: Dict[str, Any],
    counters: Counters,
) -> List[Pair]:
    """Group ``pairs`` by key and run the combiner over each group."""
    groups: Dict[Hashable, List[Any]] = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    combiner = combiner_factory()
    combiner.setup(params)
    ctx = ReduceContext(params, counters)
    for key in sorted(groups):
        combiner.reduce(key, groups[key], ctx)
    combiner.cleanup(ctx)
    return ctx.output


def run_map_task(
    task_id: str,
    mapper_factory: Callable[[], Mapper],
    records: Iterable[Pair],
    params: Dict[str, Any],
    num_partitions: int,
    partition_fn: Callable[[Hashable, int], int],
    combiner_factory: Callable[[], Reducer] | None,
) -> Tuple[List[List[Pair]], Counters, float, int, int]:
    """Execute one map task; returns (buffers, counters, seconds, in, out)."""
    counters = Counters()
    ctx = MapContext(params, counters, num_partitions, partition_fn, combiner_factory)
    mapper = mapper_factory()
    start = time.perf_counter_ns()
    records_in = 0
    try:
        mapper.setup(params)
        for key, value in records:
            records_in += 1
            mapper.map(key, value, ctx)
        mapper.cleanup(ctx)
        buffers = ctx.finish()
    except TaskError:
        raise
    except Exception as exc:
        raise TaskError(task_id, exc) from exc
    duration = (time.perf_counter_ns() - start) / 1e9
    counters.framework("map_input_records", records_in)
    counters.framework("map_output_records", ctx.records_out)
    return buffers, counters, duration, records_in, ctx.records_out


def run_reduce_task(
    task_id: str,
    reducer_factory: Callable[[], Reducer],
    grouped: List[Tuple[Hashable, List[Any]]],
    params: Dict[str, Any],
) -> Tuple[List[Pair], Counters, float, int, int]:
    """Execute one reduce task over pre-grouped input.

    ``grouped`` is a key-sorted list of ``(key, values)`` as produced by the
    shuffle.  Returns (output pairs, counters, seconds, records in, out).
    """
    counters = Counters()
    ctx = ReduceContext(params, counters)
    reducer = reducer_factory()
    records_in = sum(len(vs) for _, vs in grouped)
    start = time.perf_counter_ns()
    try:
        reducer.setup(params)
        for key, values in grouped:
            reducer.reduce(key, values, ctx)
        reducer.cleanup(ctx)
    except TaskError:
        raise
    except Exception as exc:
        raise TaskError(task_id, exc) from exc
    duration = (time.perf_counter_ns() - start) / 1e9
    counters.framework("reduce_input_records", records_in)
    counters.framework("reduce_output_records", len(ctx.output))
    return ctx.output, counters, duration, records_in, len(ctx.output)


# ---------------------------------------------------------------------------
# Executor-facing task units
# ---------------------------------------------------------------------------
#
# Everything below is the *task side* of the engine: a picklable view of a
# job plus the two module-level task bodies executors actually run.  They
# live here (not in runner.py) because they are execution-policy-free —
# the same functions run inline, in a worker thread, or in a worker
# process reached by pickle.


@dataclass(slots=True)
class JobSpec:
    """The picklable task-side view of a job.

    A :class:`~repro.mapreduce.job.Job` carries builder conveniences that
    tasks never need; this spec is the flattened subset that travels to
    worker processes with each task submission.
    """

    name: str
    mapper: type
    reducer: type
    combiner: type | None
    params: Dict[str, Any]
    num_reducers: int
    partitioner: Any

    @classmethod
    def of(cls, job: "Job") -> "JobSpec":
        """Flatten a validated job into its task-side spec."""
        return cls(
            name=job.name,
            mapper=job.mapper,
            reducer=job.reducer,
            combiner=job.combiner,
            params=dict(job.conf.params),
            num_reducers=job.conf.num_reducers,
            partitioner=job.conf.partitioner,
        )


def execute_map_task(
    spec: JobSpec, task_index: int, split: "InputSplit"
) -> Tuple[List[List[Pair]], Counters, TaskStats]:
    """One complete map task: body + volume accounting, executor-agnostic."""
    task_id = f"map-{task_index}"
    buffers, counters, duration, rin, rout = run_map_task(
        task_id,
        spec.mapper,
        split.records,
        spec.params,
        spec.num_reducers,
        spec.partitioner,
        spec.combiner,
    )
    bytes_out = sum(
        estimate_nbytes(k) + estimate_nbytes(v) for buf in buffers for k, v in buf
    )
    stats = TaskStats(
        task_id=task_id,
        kind=TaskKind.MAP,
        duration_s=duration,
        records_in=rin,
        records_out=rout,
        bytes_out=bytes_out,
    )
    return buffers, counters, stats


def execute_reduce_task(
    spec: JobSpec, part_index: int, grouped: List[Tuple[Hashable, List[Any]]]
) -> Tuple[List[Pair], Counters, TaskStats]:
    """One complete reduce task over a pre-grouped partition."""
    task_id = f"reduce-{part_index}"
    output, counters, duration, rin, rout = run_reduce_task(
        task_id, spec.reducer, grouped, spec.params
    )
    bytes_out = sum(estimate_nbytes(k) + estimate_nbytes(v) for k, v in output)
    stats = TaskStats(
        task_id=task_id,
        kind=TaskKind.REDUCE,
        duration_s=duration,
        records_in=rin,
        records_out=rout,
        bytes_out=bytes_out,
        partition=part_index,
    )
    return output, counters, stats
