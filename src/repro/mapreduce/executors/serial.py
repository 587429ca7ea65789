"""Serial executor: tasks run inline, in submission order, in the driver."""

from __future__ import annotations

from typing import Any, Callable

from repro.mapreduce.executors.base import Executor

__all__ = ["ResolvedFuture", "SerialExecutor"]


class ResolvedFuture:
    """The outcome of a task that already ran: its result or its exception.

    Inline tasks finish during ``submit`` and the runner reads each one
    right away, so this needs none of a
    :class:`concurrent.futures.Future`'s condition variable and locking.
    """

    __slots__ = ("_result", "_exception")

    def __init__(self, result: Any = None, exception: BaseException | None = None):
        self._result = result
        self._exception = exception

    def done(self) -> bool:
        return True

    def cancel(self) -> bool:
        """The task already ran — nothing left to cancel."""
        return False

    def exception(self) -> BaseException | None:
        return self._exception

    def result(self) -> Any:
        if self._exception is not None:
            raise self._exception
        return self._result


class SerialExecutor(Executor):
    """Runs every task during :meth:`submit`, in the calling thread.

    This is the default and the *measurement* executor: tasks execute one
    at a time with nothing else on the interpreter, so their
    ``perf_counter_ns`` durations are clean inputs for the cluster
    simulator, and the runner can trace real (non-synthetic) nested task
    spans.  The returned future is already resolved — a task's exception
    is captured, not raised, so the runner's drain loop handles serial
    failures exactly like pool failures.
    """

    name = "serial"
    inline = True

    def submit(self, fn: Callable[..., Any], /, *args: Any) -> ResolvedFuture:
        try:
            return ResolvedFuture(fn(*args))
        # Not a swallow: the exception is transported through the future
        # and re-raised by the runner's drain loop, mirroring how a pool
        # executor surfaces worker failures.
        except BaseException as exc:  # repro: allow[exception-hygiene]
            return ResolvedFuture(exception=exc)
