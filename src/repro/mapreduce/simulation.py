"""Deterministic replay of measured jobs on a simulated cluster.

Given the per-task :class:`~repro.mapreduce.types.TaskStats` measured by a
(serial) run and a :class:`~repro.mapreduce.cluster.ClusterSpec`, the
simulator computes phase makespans:

* **Map time** — list-schedule the map tasks' (scaled) durations over the
  cluster's map slots, plus per-task launch overhead.
* **Shuffle time** — the map phase's output volume over the aggregate copy
  bandwidth, plus a fixed latency.  Hadoop accounts the copy/merge inside
  the reduce tasks, so :attr:`SimulatedJob.reduce_time_s` includes it — this
  matches how the paper's Figure 6 splits "Map Time" vs "Reduce Time".
* **Reduce time** — list-schedule the reduce tasks over reduce slots (plus
  shuffle).

Chained jobs add one ``job_overhead_s`` each, so the simulated total for the
skyline pipelines is ``overheads + Σ(job phases)``.  An optional
:class:`StragglerSpec` perturbs each phase's task durations before they are
scheduled; it is the only difference between a clean and a straggler replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.mapreduce.cluster import ClusterSpec
from repro.mapreduce.job import JobResult
from repro.mapreduce.scheduler import Schedule, schedule_tasks
from repro.mapreduce.types import TaskStats
from repro.observability.metrics import get_metrics
from repro.observability.tracing import get_tracer


@dataclass(frozen=True, slots=True)
class SimulatedJob:
    """Phase times for one job replayed on a simulated cluster."""

    job_name: str
    num_nodes: int
    map_makespan_s: float
    shuffle_s: float
    reduce_makespan_s: float
    job_overhead_s: float

    @property
    def map_time_s(self) -> float:
        """Figure-6 style "Map Time" (includes the job's fixed overhead)."""
        return self.map_makespan_s + self.job_overhead_s

    @property
    def reduce_time_s(self) -> float:
        """Figure-6 style "Reduce Time": copy/merge (shuffle) + reduce."""
        return self.shuffle_s + self.reduce_makespan_s

    @property
    def total_s(self) -> float:
        return self.map_time_s + self.reduce_time_s


@dataclass(frozen=True, slots=True)
class SimulatedPipeline:
    """Aggregated times for a chain of jobs (the two-job skyline pipeline)."""

    jobs: tuple[SimulatedJob, ...]

    @property
    def map_time_s(self) -> float:
        return sum(j.map_time_s for j in self.jobs)

    @property
    def reduce_time_s(self) -> float:
        return sum(j.reduce_time_s for j in self.jobs)

    @property
    def total_s(self) -> float:
        return sum(j.total_s for j in self.jobs)


def _phase_schedule(
    tasks: Sequence[TaskStats],
    slots: int,
    cluster: ClusterSpec,
    stragglers: StragglerSpec | None,
) -> Schedule:
    durations = [t.duration_s * cluster.speed_factor for t in tasks]
    if stragglers is not None:
        durations = stragglers.perturb(durations, cluster.task_launch_s)
    return schedule_tasks(
        durations, slots, per_task_overhead_s=cluster.task_launch_s
    )


def simulate_job(
    result: JobResult,
    cluster: ClusterSpec,
    stragglers: StragglerSpec | None = None,
) -> SimulatedJob:
    """Replay one measured job on ``cluster``.

    With ``stragglers``, each phase's task durations are perturbed by the
    straggler model before they are scheduled.
    """
    with get_tracer().span(
        f"simulate:{result.job_name}", kind="simulate", num_nodes=cluster.num_nodes
    ) as span:
        map_schedule = _phase_schedule(
            result.map_stats.tasks, cluster.map_slots, cluster, stragglers
        )
        reduce_schedule = _phase_schedule(
            result.reduce_stats.tasks, cluster.reduce_slots, cluster, stragglers
        )
        shuffle_s = 0.0
        if result.shuffle_stats.bytes > 0:
            shuffle_s = (
                result.shuffle_stats.bytes / cluster.aggregate_shuffle_bytes_per_s
                + cluster.shuffle_latency_s
            )
        registry = get_metrics()
        map_schedule.observe(registry, "sim.map")
        reduce_schedule.observe(registry, "sim.reduce")
        span.set_attrs(
            sim_map_s=round(map_schedule.makespan_s, 6),
            sim_shuffle_s=round(shuffle_s, 6),
            sim_reduce_s=round(reduce_schedule.makespan_s, 6),
            map_utilisation=round(map_schedule.utilisation, 6),
            reduce_utilisation=round(reduce_schedule.utilisation, 6),
        )
    return SimulatedJob(
        job_name=result.job_name,
        num_nodes=cluster.num_nodes,
        map_makespan_s=map_schedule.makespan_s,
        shuffle_s=shuffle_s,
        reduce_makespan_s=reduce_schedule.makespan_s,
        job_overhead_s=cluster.job_overhead_s,
    )


def simulate_pipeline(
    results: Sequence[JobResult],
    cluster: ClusterSpec,
    stragglers: StragglerSpec | None = None,
) -> SimulatedPipeline:
    """Replay a chain of measured jobs on ``cluster``.

    Hadoop's sequential semantics: each job starts after the previous one
    fully finishes.
    """
    return SimulatedPipeline(
        jobs=tuple(simulate_job(r, cluster, stragglers) for r in results)
    )


@dataclass(frozen=True, slots=True)
class StragglerSpec:
    """Deterministic straggler injection for robustness studies.

    Hadoop-era clusters lose time to stragglers (slow disks, hot nodes);
    speculative execution launches backup attempts for tasks running far
    beyond the norm.  This model perturbs measured task durations and
    (optionally) caps each straggler at the speculative-backup completion
    time:

    * each task independently straggles with probability ``probability``
      (deterministic per ``seed`` and task index),
    * a straggling task's duration is multiplied by ``slowdown``,
    * with ``speculative=True``, the effective duration becomes
      ``min(slowed, trigger + nominal + relaunch)`` where ``trigger`` is
      when the backup is launched (the phase's median nominal duration
      times ``trigger_factor``) — the backup runs at nominal speed.
    """

    probability: float = 0.1
    slowdown: float = 5.0
    speculative: bool = True
    trigger_factor: float = 1.5
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.slowdown < 1.0:
            raise ValueError(f"slowdown must be >= 1, got {self.slowdown}")
        if self.trigger_factor <= 0:
            raise ValueError(f"trigger_factor must be > 0, got {self.trigger_factor}")

    def perturb(self, durations: Sequence[float], launch_s: float) -> list[float]:
        """Effective per-task durations under this straggler model."""
        durations = list(durations)
        if not durations:
            return []
        import numpy as np

        rng = np.random.default_rng(self.seed)
        straggles = rng.random(len(durations)) < self.probability
        median = float(np.median(durations))
        out = []
        for nominal, slow in zip(durations, straggles):
            if not slow:
                out.append(nominal)
                continue
            slowed = nominal * self.slowdown
            if self.speculative:
                backup_done = self.trigger_factor * median + nominal + launch_s
                slowed = min(slowed, backup_done)
            out.append(slowed)
        return out
