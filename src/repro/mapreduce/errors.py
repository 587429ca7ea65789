"""Exception hierarchy for the MapReduce engine.

All engine-raised exceptions derive from :class:`EngineError`, so callers can
catch one type.  Configuration mistakes raise :class:`JobConfigError` at job
submission time (fail fast, before any task runs); failures inside user map /
reduce code are wrapped in :class:`TaskError` with the task id attached; a job
whose tasks exhausted their retries raises :class:`JobFailedError`.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all MapReduce engine errors."""


class JobConfigError(EngineError):
    """The job configuration is invalid (detected before execution starts)."""


class TaskError(EngineError):
    """A map or reduce task failed while executing user code.

    Attributes
    ----------
    task_id:
        Engine-assigned identifier such as ``"map-3"`` or ``"reduce-0"``.
    cause:
        The original exception raised by user code (also chained via
        ``__cause__`` when re-raised).
    """

    def __init__(self, task_id: str, cause: BaseException | str):
        self.task_id = task_id
        self.cause = cause
        super().__init__(f"task {task_id} failed: {cause!r}")

    def __reduce__(self):
        # Default exception pickling replays __init__ with self.args (the
        # formatted message), which doesn't match this signature — a failed
        # worker task would then break the whole process pool and mask the
        # real error as BrokenProcessPool.  Rebuild from the true fields,
        # degrading an unpicklable cause to its repr.
        import pickle

        cause = self.cause
        if not isinstance(cause, str):
            try:
                pickle.dumps(cause)
            except (pickle.PicklingError, TypeError, AttributeError) as exc:
                # The narrow trio pickle actually raises for unpicklable
                # values: PicklingError (protocol refusals), TypeError
                # (e.g. locks, generators), AttributeError (unimportable
                # qualnames).  Anything else propagates — a swallow here
                # would mask the real failure as BrokenProcessPool.
                cause = f"{cause!r} (unpicklable: {exc})"
        return (type(self), (self.task_id, cause))


class TaskTimeoutError(TaskError):
    """A task attempt exceeded its wall-clock budget.

    Raised worker-side by cooperative hangs (see
    :mod:`repro.mapreduce.faults`) and driver-side when the runner abandons
    a future past its ``RetryPolicy.task_timeout_s`` deadline.  Counts as a
    retryable failure like any other :class:`TaskError`.
    """

    def __init__(self, task_id: str, timeout_s: float):
        self.timeout_s = timeout_s
        # TaskError.__init__ sets task_id/cause and the formatted message.
        super().__init__(task_id, f"timed out after {timeout_s:.3f}s")

    def __reduce__(self):
        # TaskError.__reduce__ replays (task_id, cause), which doesn't match
        # this signature — rebuild from (task_id, timeout_s) instead so the
        # exception survives the process-pool result channel intact.
        return (type(self), (self.task_id, self.timeout_s))


class JobFailedError(EngineError):
    """A job could not complete because one or more tasks failed terminally.

    Attributes
    ----------
    failures:
        The terminal :class:`TaskError` of every failed task.
    completed_stats:
        ``TaskStats`` of the tasks that *did* finish before the job died
        (same phase), so a failed job still yields partial timing data —
        the runner also emits these as trace spans before raising.
    """

    def __init__(
        self,
        job_name: str,
        failures: list[TaskError],
        completed_stats: list | None = None,
    ):
        self.job_name = job_name
        self.failures = failures
        self.completed_stats = list(completed_stats or [])
        detail = "; ".join(str(f) for f in failures[:3])
        more = "" if len(failures) <= 3 else f" (+{len(failures) - 3} more)"
        super().__init__(f"job {job_name!r} failed: {detail}{more}")
