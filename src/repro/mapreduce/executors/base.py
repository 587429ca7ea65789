"""The :class:`Executor` protocol: *where* tasks run, and nothing else.

The unified :class:`~repro.mapreduce.runner.Runner` owns all orchestration —
splits, retries, the streaming shuffle, tracing, stats — and delegates only
the question "run this callable, give me a future" to an executor.  The
lifecycle is deliberately tiny:

* :meth:`Executor.submit` — schedule one task body, return a
  :class:`TaskFuture`: a :class:`concurrent.futures.Future` from the pool
  executors (the runner drains those with :func:`concurrent.futures.wait`),
  an already-resolved one from the serial executor,
* :meth:`Executor.shutdown` — release pools/workers,
* the context-manager protocol, equivalent to ``shutdown()`` on exit.

Two capability flags drive the runner's behaviour:

``inline``
    ``True`` means ``submit`` executes the task *during the call*, in the
    caller's thread (the serial executor).  The runner then traces real
    nested task spans and skips all overlap machinery — inline execution
    is what gives the measurement path its clean per-task timings.
``name``
    Stable identifier (``"serial"`` / ``"threads"`` / ``"processes"``)
    recorded on every task span's ``executor`` attribute and in bench
    metadata, so traces and ``BENCH_*.json`` files say where tasks ran.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Protocol

__all__ = ["Executor", "TaskFuture"]


class TaskFuture(Protocol):
    """What the runner reads off a submitted task."""

    def done(self) -> bool: ...

    def cancel(self) -> bool: ...

    def result(self) -> Any: ...


class Executor(ABC):
    """Task execution strategy consumed by the unified runner."""

    #: Stable identifier stamped on task spans and bench metadata.
    name: str = "abstract"

    #: ``True`` when ``submit`` runs the task synchronously in the caller.
    inline: bool = False

    @abstractmethod
    def submit(self, fn: Callable[..., Any], /, *args: Any) -> TaskFuture:
        """Schedule ``fn(*args)``; return a future with its result."""

    def cancel(self, future: TaskFuture) -> bool:
        """Best-effort cancellation of one submitted task.

        Returns ``True`` only when the task was prevented from running.
        Pool executors cannot interrupt an *already running* task body —
        ``Future.cancel`` fails then, and the runner simply abandons the
        future (never reads its result) and marks the worker suspect.  The
        serial executor has nothing to cancel: its futures resolve during
        ``submit``.
        """
        return future.cancel()

    def shutdown(self, wait: bool = True) -> None:
        """Release any worker pools; idempotent.  Default: nothing to do."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
