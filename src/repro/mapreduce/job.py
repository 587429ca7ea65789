"""Job definition and results.

A :class:`Job` bundles the user's mapper / combiner / reducer *classes*
(instantiated per task, so they stay picklable for multiprocessing) with a
:class:`JobConf`.  :class:`JobResult` carries outputs plus everything the
evaluation needs: merged counters, per-task :class:`TaskStats`, shuffle
volume, and measured wall-clock per phase — the inputs to both the paper's
Figure 5 (processing time) and Figure 6 (map/reduce breakdown via the
cluster simulator).

Two-job pipelines (partition+local-skyline then global-merge, Algorithm 1 of
the paper) are expressed with :class:`JobChain`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Iterator, List, Sequence, Tuple, Type

from repro.mapreduce.counters import Counters
from repro.mapreduce.errors import JobConfigError
from repro.mapreduce.partitioner import HashPartitioner, Partitioner
from repro.mapreduce.shuffle import ShuffleStats
from repro.mapreduce.tasks import Mapper, Reducer
from repro.mapreduce.types import PhaseStats, TaskKind

Pair = Tuple[Hashable, Any]


@dataclass(slots=True)
class JobConf:
    """Execution knobs for one job.

    Attributes
    ----------
    num_reducers:
        Number of reduce partitions/tasks ``R``.
    num_map_tasks:
        Split-count hint for in-memory inputs (file inputs derive splits
        from block boundaries instead).
    partitioner:
        Key-routing policy; defaults to :class:`HashPartitioner`.
    params:
        Arbitrary user parameters delivered to every task's ``setup``.
    """

    num_reducers: int = 1
    num_map_tasks: int = 1
    partitioner: Partitioner = field(default_factory=HashPartitioner)
    params: Dict[str, Any] = field(default_factory=dict)

    def validate(self) -> None:
        if self.num_reducers <= 0:
            raise JobConfigError(f"num_reducers must be >= 1, got {self.num_reducers}")
        if self.num_map_tasks <= 0:
            raise JobConfigError(
                f"num_map_tasks must be >= 1, got {self.num_map_tasks}"
            )
        if not isinstance(self.partitioner, Partitioner):
            raise JobConfigError(
                f"partitioner must be a Partitioner, got {type(self.partitioner)!r}"
            )


@dataclass(slots=True)
class Job:
    """One MapReduce job: classes + configuration."""

    name: str
    mapper: Type[Mapper]
    reducer: Type[Reducer]
    conf: JobConf = field(default_factory=JobConf)
    combiner: Type[Reducer] | None = None

    def validate(self) -> None:
        self.conf.validate()
        if not (isinstance(self.mapper, type) and issubclass(self.mapper, Mapper)):
            raise JobConfigError(f"mapper must be a Mapper subclass, got {self.mapper!r}")
        if not (isinstance(self.reducer, type) and issubclass(self.reducer, Reducer)):
            raise JobConfigError(
                f"reducer must be a Reducer subclass, got {self.reducer!r}"
            )
        if self.combiner is not None and not (
            isinstance(self.combiner, type) and issubclass(self.combiner, Reducer)
        ):
            raise JobConfigError(
                f"combiner must be a Reducer subclass, got {self.combiner!r}"
            )


@dataclass(slots=True)
class JobResult:
    """Everything produced by one executed job."""

    job_name: str
    outputs: List[List[Pair]]
    counters: Counters
    map_stats: PhaseStats
    reduce_stats: PhaseStats
    shuffle_stats: ShuffleStats
    map_wall_s: float = 0.0
    shuffle_wall_s: float = 0.0
    reduce_wall_s: float = 0.0
    #: Name of the executor the job ran under ("serial" / "threads" / ...).
    executor: str = "serial"
    #: True when a degraded-mode run lost at least one task terminally: the
    #: outputs are then a *subset* of the complete answer.
    partial: bool = False
    #: Task ids ("map-3", "reduce-0") whose retries were exhausted under
    #: ``RetryPolicy(on_lost="degrade")``; empty for complete results.
    lost_partitions: List[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        """Total measured wall-clock across the three phases."""
        return self.map_wall_s + self.shuffle_wall_s + self.reduce_wall_s

    def output_pairs(self) -> Iterator[Pair]:
        """All output pairs across reduce partitions, partition order."""
        for part in self.outputs:
            yield from part

    def output_values(self) -> Iterator[Any]:
        for _, value in self.output_pairs():
            yield value

    def summary(self) -> Dict[str, Any]:
        """Compact dict for logs and EXPERIMENTS.md tables."""
        return {
            "job": self.job_name,
            "executor": self.executor,
            "map_tasks": len(self.map_stats),
            "reduce_tasks": len(self.reduce_stats),
            "map_busy_s": round(self.map_stats.busy_s, 6),
            "reduce_busy_s": round(self.reduce_stats.busy_s, 6),
            "shuffle_records": self.shuffle_stats.records,
            "shuffle_bytes": self.shuffle_stats.bytes,
            "wall_s": round(self.wall_s, 6),
            "output_records": sum(len(p) for p in self.outputs),
        }


@dataclass(slots=True)
class ChainResult:
    """Results of a :class:`JobChain`, in execution order."""

    results: List[JobResult]

    @property
    def final(self) -> JobResult:
        if not self.results:
            raise ValueError("empty chain result")
        return self.results[-1]

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.results)

    @property
    def partial(self) -> bool:
        """True when any stage ran degraded and lost a task."""
        return any(r.partial for r in self.results)

    @property
    def lost_partitions(self) -> List[str]:
        """Lost task ids across all stages, prefixed with the job name."""
        return [
            f"{r.job_name}/{task_id}"
            for r in self.results
            for task_id in r.lost_partitions
        ]

    def phase_stats(self, kind: TaskKind) -> PhaseStats:
        """Concatenated task stats of one kind across all chained jobs."""
        merged = PhaseStats(kind=kind)
        for result in self.results:
            source = result.map_stats if kind is TaskKind.MAP else result.reduce_stats
            merged.tasks.extend(source.tasks)
        return merged


class JobChain:
    """A linear pipeline where job *k+1* maps over job *k*'s output pairs.

    Each stage is a builder ``records -> Job`` so stages can size themselves
    (e.g. split counts) from the actual intermediate data.  The first builder
    receives the chain's input records.
    """

    def __init__(
        self,
        name: str,
        stages: Sequence[Callable[[List[Pair]], Job]],
    ):
        if not stages:
            raise JobConfigError("JobChain needs at least one stage")
        self.name = name
        self.stages = list(stages)

    def __len__(self) -> int:
        return len(self.stages)
