"""Core value types shared across the MapReduce engine.

The engine moves ``(key, value)`` pairs.  Keys must be hashable and totally
orderable within one job (the shuffle sorts by key); values are arbitrary
Python objects.  :class:`TaskStats` is the engine's timing record — one per
executed task — and is the raw material for the cluster timing simulation
(:mod:`repro.mapreduce.simulation`) that reproduces the paper's Figure 6.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Any, Hashable, NamedTuple


class KeyValue(NamedTuple):
    """A single key/value record flowing through the engine."""

    key: Hashable
    value: Any


class TaskKind(enum.Enum):
    """Which pipeline stage a task belongs to."""

    MAP = "map"
    REDUCE = "reduce"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(slots=True)
class TaskStats:
    """Timing and volume accounting for one executed task.

    Attributes
    ----------
    task_id:
        Engine-assigned id, e.g. ``"map-7"``.
    kind:
        :class:`TaskKind.MAP` or :class:`TaskKind.REDUCE`.
    duration_s:
        Wall-clock seconds spent inside the task body (user code + framework
        record handling, excluding inter-process transfer).
    records_in / records_out:
        Record counts crossing the task boundary.
    bytes_out:
        Estimated serialized size of the task output; drives the shuffle
        cost model in the simulator.
    partition:
        For reduce tasks, the reduce-partition index; ``-1`` for map tasks.
    """

    task_id: str
    kind: TaskKind
    duration_s: float = 0.0
    records_in: int = 0
    records_out: int = 0
    bytes_out: int = 0
    partition: int = -1
    attempt: int = 1

    def merged_with(self, other: "TaskStats") -> "TaskStats":
        """Combine two attempts/stat fragments of the same logical task."""
        if other.task_id != self.task_id:
            raise ValueError(
                f"cannot merge stats of {self.task_id} with {other.task_id}"
            )
        return TaskStats(
            task_id=self.task_id,
            kind=self.kind,
            duration_s=self.duration_s + other.duration_s,
            records_in=self.records_in + other.records_in,
            records_out=self.records_out + other.records_out,
            bytes_out=self.bytes_out + other.bytes_out,
            partition=self.partition,
            attempt=max(self.attempt, other.attempt),
        )


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """The runner's fault-tolerance contract for one job run.

    The one way to configure fault tolerance on
    :class:`~repro.mapreduce.runner.Runner`: how often to retry, how long to wait between attempts, when to abandon
    a hung task, when to launch a speculative backup, and what to do when a
    task is terminally lost.

    Backoff before retry ``attempt`` (attempt 2 is the first retry) is
    ``min(backoff_max_s, backoff_base_s × backoff_factor^(attempt-1))``,
    then scaled by a seeded jitter multiplier drawn uniformly from
    ``[1 - jitter, 1 + jitter]`` — deterministic per ``(seed, task_id,
    attempt)``, so two runs with the same policy wait out identical
    schedules.

    Attributes
    ----------
    max_retries:
        Retries after the first attempt; ``0`` means fail on first error.
    backoff_base_s / backoff_factor / backoff_max_s:
        Exponential backoff shape.  ``backoff_base_s = 0`` (the default)
        retries immediately, preserving the engine's historical behaviour.
    jitter:
        Relative jitter amplitude in ``[0, 1]``; ``0`` disables it.
    seed:
        Seed for the jitter PRNG (see :func:`stable_backoff_rng`).
    task_timeout_s:
        Per-attempt wall-clock budget, or ``None`` for no deadline.  On
        pool executors the driver abandons the future at the deadline and
        schedules a retry; the serial executor cannot pre-empt, so inline
        tasks honour the deadline only cooperatively (see
        :mod:`repro.mapreduce.faults`).
    speculation:
        Launch backup attempts for stragglers (pool executors only —
        mirrors :class:`~repro.mapreduce.simulation.StragglerSpec`).
    speculation_factor:
        A running task is a straggler once its elapsed time exceeds
        ``speculation_factor × median(completed task durations)``.
    speculation_min_completed:
        Completed-task sample size required before speculation arms.
    speculation_poll_s:
        Driver wake-up interval for deadline/speculation checks while
        futures are in flight.
    on_lost:
        ``"fail"`` raises :class:`~repro.mapreduce.errors.JobFailedError`
        when a task exhausts its retries; ``"degrade"`` records the loss,
        substitutes an empty output, and returns a job result flagged
        ``partial=True`` with the lost task ids listed.
    """

    max_retries: int = 0
    backoff_base_s: float = 0.0
    backoff_factor: float = 2.0
    backoff_max_s: float = 30.0
    jitter: float = 0.0
    seed: int = 0
    task_timeout_s: float | None = None
    speculation: bool = False
    speculation_factor: float = 1.5
    speculation_min_completed: int = 2
    speculation_poll_s: float = 0.01
    on_lost: str = "fail"

    def validate(self) -> None:
        """Reject non-sensical policies at configuration time."""
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base_s < 0:
            raise ValueError(
                f"backoff_base_s must be >= 0, got {self.backoff_base_s}"
            )
        if self.backoff_factor < 1.0:
            # Factor >= 1 keeps the pre-jitter schedule monotone
            # non-decreasing — the property the chaos suite asserts.
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.backoff_max_s < 0:
            raise ValueError(
                f"backoff_max_s must be >= 0, got {self.backoff_max_s}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ValueError(
                f"task_timeout_s must be > 0 or None, got {self.task_timeout_s}"
            )
        if self.speculation_factor < 1.0:
            raise ValueError(
                f"speculation_factor must be >= 1, got {self.speculation_factor}"
            )
        if self.speculation_min_completed < 1:
            raise ValueError(
                "speculation_min_completed must be >= 1, got "
                f"{self.speculation_min_completed}"
            )
        if self.speculation_poll_s <= 0:
            raise ValueError(
                f"speculation_poll_s must be > 0, got {self.speculation_poll_s}"
            )
        if self.on_lost not in ("fail", "degrade"):
            raise ValueError(
                f'on_lost must be "fail" or "degrade", got {self.on_lost!r}'
            )

    def pre_jitter_backoff_s(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (>= 2), before jitter.

        Monotone non-decreasing in ``attempt`` and capped at
        ``backoff_max_s``; ``0.0`` whenever ``backoff_base_s`` is zero.
        """
        if attempt < 2:
            return 0.0
        if self.backoff_base_s <= 0:
            return 0.0
        raw = self.backoff_base_s * self.backoff_factor ** (attempt - 2)
        return min(self.backoff_max_s, raw)

    def backoff_s(self, task_id: str, attempt: int) -> float:
        """Jittered backoff before retry ``attempt`` of ``task_id``.

        Deterministic: the jitter multiplier comes from a PRNG seeded by a
        stable digest of ``(seed, task_id, attempt)``.
        """
        base = self.pre_jitter_backoff_s(attempt)
        if base <= 0 or self.jitter <= 0:
            return base
        rng = stable_backoff_rng(self.seed, task_id, attempt)
        multiplier = 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(0.0, base * multiplier)


def stable_backoff_rng(seed: int, task_id: str, attempt: int) -> random.Random:
    """PRNG for backoff jitter, keyed by a salted-``hash()``-free digest.

    BLAKE2 over the repr of the key tuple gives the same stream on every
    interpreter and platform — the property the determinism tests pin.
    """
    import hashlib

    digest = hashlib.blake2b(
        repr((seed, task_id, attempt)).encode("utf-8"), digest_size=8
    ).digest()
    return random.Random(int.from_bytes(digest, "big"))


@dataclass(slots=True)
class PhaseStats:
    """Aggregated statistics for one phase (all map tasks or all reduce tasks).

    ``busy_s`` is the *sum* of task durations (total work); ``critical_s`` is
    the longest single task (a lower bound on the phase's parallel makespan
    with unlimited slots).
    """

    kind: TaskKind
    tasks: list[TaskStats] = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        return sum(t.duration_s for t in self.tasks)

    @property
    def critical_s(self) -> float:
        return max((t.duration_s for t in self.tasks), default=0.0)

    @property
    def records_in(self) -> int:
        return sum(t.records_in for t in self.tasks)

    @property
    def records_out(self) -> int:
        return sum(t.records_out for t in self.tasks)

    @property
    def bytes_out(self) -> int:
        return sum(t.bytes_out for t in self.tasks)

    def __len__(self) -> int:
        return len(self.tasks)
