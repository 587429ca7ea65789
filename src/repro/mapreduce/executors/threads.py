"""Thread-pool executor: in-process concurrency, shared memory."""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable

from repro.mapreduce.errors import JobConfigError
from repro.mapreduce.executors.base import Executor

__all__ = ["ThreadExecutor"]


class ThreadExecutor(Executor):
    """Runs tasks in a lazily-created :class:`ThreadPoolExecutor`.

    Payloads are shared by reference (no pickling), so this is the cheap
    way to overlap tasks whose heavy lifting releases the GIL — the
    skyline jobs' NumPy dominance kernels do.  Task durations reported
    back are measured inside the worker threads and may include GIL
    contention; the runner records them as synthetic (back-dated) spans.

    The lazily-created pool is guarded by ``self._lock`` (the engine's
    lock-discipline contract, enforced by ``repro lint``): concurrent
    first ``submit`` calls — e.g. two runners sharing one executor
    instance — must not race the pool into existence twice, and
    ``shutdown`` must not tear it down under a submitter.

    Metrics *instrument creation* is likewise locked in the registry;
    histogram observations from inside task code remain best-effort under
    threads (per-instrument increments are unsynchronized).  Counters are
    immune — each task owns a private
    :class:`~repro.mapreduce.counters.Counters` merged in the driver.

    Timeouts: a running task thread cannot be interrupted, so when the
    runner's deadline watchdog fires it *abandons* the future (base
    ``cancel`` succeeds only for not-yet-started tasks) and the hung thread
    keeps occupying a pool slot until it returns on its own — the
    ``executor.suspect_workers`` counter tracks how many slots are suspect.
    """

    name = "threads"

    def __init__(self, num_workers: int | None = None):
        if num_workers is not None and num_workers <= 0:
            raise JobConfigError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = num_workers or (os.cpu_count() or 1)
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()

    def submit(self, fn: Callable[..., Any], /, *args: Any) -> Future:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.num_workers,
                    thread_name_prefix="repro-task",
                )
            pool = self._pool
        return pool.submit(fn, *args)

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)
