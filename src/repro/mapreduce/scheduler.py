"""Slot scheduling: assigning tasks to a fixed pool of execution slots.

This is the heart of the cluster timing model.  Hadoop 0.20 ran each task in
a slot (a fixed number per TaskTracker node); a phase's duration is the
*makespan* of its tasks over the available slots.  Tasks start in submission
order (Hadoop's default FIFO queue), each on the slot that frees first.

The scheduler is deterministic: ties break on slot index, then task index.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Sequence


@dataclass(slots=True)
class ScheduledTask:
    """Placement of one task on the simulated cluster."""

    task_index: int
    slot: int
    start_s: float
    end_s: float

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass(slots=True)
class Schedule:
    """A full phase schedule."""

    num_slots: int
    tasks: List[ScheduledTask] = field(default_factory=list)

    @property
    def makespan_s(self) -> float:
        return max((t.end_s for t in self.tasks), default=0.0)

    @property
    def busy_s(self) -> float:
        return sum(t.duration_s for t in self.tasks)

    @property
    def utilisation(self) -> float:
        """Fraction of slot-time doing work; 1.0 means perfectly packed."""
        span = self.makespan_s
        if span <= 0.0:
            return 1.0
        return self.busy_s / (span * self.num_slots)

    def observe(self, registry, prefix: str) -> None:
        """Record this schedule's shape as gauges under ``prefix.``.

        ``makespan_s`` / ``busy_s`` / ``utilisation`` plus ``tasks`` and
        ``slots`` — enough to diagnose a wave's packing quality (a low
        utilisation with a long makespan means one straggling task holds
        the phase, the paper's core load-balance argument).
        """
        registry.gauge(f"{prefix}.makespan_s").set(self.makespan_s)
        registry.gauge(f"{prefix}.busy_s").set(self.busy_s)
        registry.gauge(f"{prefix}.utilisation").set(self.utilisation)
        registry.gauge(f"{prefix}.tasks").set(len(self.tasks))
        registry.gauge(f"{prefix}.slots").set(self.num_slots)


def schedule_tasks(
    durations: Sequence[float],
    num_slots: int,
    *,
    per_task_overhead_s: float = 0.0,
) -> Schedule:
    """FIFO list scheduling of ``durations`` onto ``num_slots`` slots.

    Each task occupies its slot for ``duration + per_task_overhead_s`` (the
    overhead models task launch — Hadoop's JVM spin-up).  Returns the full
    placement, from which callers read the makespan.
    """
    if num_slots <= 0:
        raise ValueError(f"num_slots must be >= 1, got {num_slots}")
    for i, d in enumerate(durations):
        if d < 0:
            raise ValueError(f"task {i} has negative duration {d}")
    if per_task_overhead_s < 0:
        raise ValueError(f"per_task_overhead_s must be >= 0, got {per_task_overhead_s}")

    # Min-heap of (free_time, slot_index).
    slots = [(0.0, s) for s in range(num_slots)]
    heapq.heapify(slots)
    schedule = Schedule(num_slots=num_slots)
    for task_index, duration in enumerate(durations):
        start, slot = heapq.heappop(slots)
        end = start + duration + per_task_overhead_s
        schedule.tasks.append(
            ScheduledTask(task_index=task_index, slot=slot, start_s=start, end_s=end)
        )
        heapq.heappush(slots, (end, slot))
    return schedule
