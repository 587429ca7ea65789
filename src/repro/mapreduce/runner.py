"""One job runner, pluggable executors, streaming shuffle.

Orchestration lives in a single :class:`Runner`; *where* task bodies run is
delegated to an :class:`~repro.mapreduce.executors.Executor` (serial inline,
thread pool, or process pool — ``Runner("threads", num_workers=8)`` or the
``REPRO_EXECUTOR`` environment variable select one).

The shuffle is incremental: each map task's per-partition buffers are
ingested into a :class:`~repro.mapreduce.shuffle.StreamingShuffle` as the
task completes, so segment sorting overlaps still-running map tasks, and
with a pool executor each reduce partition is submitted the moment it is
merged — the next partition's merge overlaps the previous partition's
reduce.

Every run is traced through :mod:`repro.observability`: a ``job`` span
nests ``phase`` spans (map / shuffle / reduce), which nest ``task`` spans,
every task span tagged with its ``executor``.  Inline (serial) execution
produces real nested task spans; pool executors produce synthetic
back-dated spans recorded as futures drain (tasks execute in workers, so
only measured durations travel back).  Spans export as they finish — a
job that dies mid-phase still leaves a partial trace, and the raised
:class:`JobFailedError` carries the completed tasks' stats.
With the default disabled tracer all hooks are no-ops.

Fault tolerance is policy-driven (see ``docs/fault_tolerance.md``): a
:class:`~repro.mapreduce.types.RetryPolicy` sets the retry budget,
exponential backoff with seeded jitter, per-attempt wall-clock timeouts
(cooperative inline; driver-side future abandonment on pools), speculative
backup attempts for stragglers (first finisher wins, the loser's output is
discarded before commit), and the degraded mode that swaps a terminal
:class:`JobFailedError` for a result flagged ``partial=True``.  A
:class:`~repro.mapreduce.faults.FaultPlan` — passed explicitly, embedded in
the policy resolution, or installed process-wide by the CLI's ``--faults``
— injects deterministic chaos into the same machinery; every retry,
timeout, and speculation decision emits ``decision`` trace spans and
metrics counters either way.
"""

from __future__ import annotations

import statistics
import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from contextlib import contextmanager
from typing import Any, Callable, Dict, Hashable, Iterator, List, Sequence, Tuple, cast

from repro._clock import MonotonicClock
from repro.mapreduce.counters import Counters
from repro.mapreduce.errors import (
    JobConfigError,
    JobFailedError,
    TaskError,
    TaskTimeoutError,
)
from repro.mapreduce.executors import Executor, make_executor
from repro.mapreduce.executors.base import TaskFuture
from repro.mapreduce.faults import (
    FaultDecision,
    FaultInjector,
    FaultPlan,
    apply_fault,
    get_default_fault_plan,
)
from repro.mapreduce.inputs import InputSplit, make_splits
from repro.mapreduce.job import ChainResult, Job, JobChain, JobResult
from repro.mapreduce.shuffle import Grouped, StreamingShuffle
from repro.mapreduce.shuffle import shuffle  # noqa: F401  perfbench/tracing.py patches runner.shuffle
from repro.mapreduce.tasks import JobSpec, execute_map_task, execute_reduce_task
from repro.mapreduce.types import PhaseStats, RetryPolicy, TaskKind, TaskStats
from repro.observability.events import get_events
from repro.observability.metrics import get_metrics, observe_partition_skew
from repro.observability.tracing import Tracer, get_tracer

Pair = Tuple[Hashable, Any]

#: pending-future bookkeeping: future -> (task index, payload, attempt).
_Pending = Dict[TaskFuture, Tuple[int, Any, int]]


#: Duration histogram of each task kind, named once for every job.
_DURATION_HISTOGRAMS = {kind: f"task.{kind.value}.duration_s" for kind in TaskKind}


def _task_span_attrs(stats: TaskStats) -> Dict[str, Any]:
    """Span annotations shared by real and synthetic task spans.

    Built only when the tracer records spans: a disabled tracer's spans
    drop their attributes anyway.
    """
    return {
        "task_kind": str(stats.kind),
        "records_in": stats.records_in,
        "records_out": stats.records_out,
        "bytes_out": stats.bytes_out,
        "attempt": stats.attempt,
        "measured_s": round(stats.duration_s, 9),
    }


def _observe_task(stats: TaskStats) -> None:
    """Feed one finished task into the duration histograms."""
    get_metrics().histogram(_DURATION_HISTOGRAMS[stats.kind]).observe(
        stats.duration_s
    )


class Runner:
    """Drives jobs and chains over any task executor.

    Parameters
    ----------
    executor:
        An :class:`~repro.mapreduce.executors.Executor` instance, an
        executor name (``"serial"`` / ``"threads"`` / ``"processes"``), or
        ``None`` for the process default (``$REPRO_EXECUTOR``, else
        serial).  Named executors are created fresh per :meth:`run` /
        :meth:`run_chain` and shut down afterwards; an instance is reused
        across runs and released by :meth:`close` (or leaving the runner's
        ``with`` block).  A pool is shared across map and reduce phases —
        and across every job of a chain — so worker spin-up is paid once.
    num_workers:
        Pool size for named pool executors (default: CPU count).
    retry_policy:
        Full fault-tolerance policy (:class:`RetryPolicy`): retry budget,
        backoff + jitter, per-attempt timeouts, speculation, and the
        ``on_lost`` contract.  Defaults to the fault plan's embedded
        policy (if any), else ``RetryPolicy()`` (no retries).
    fault_plan:
        A :class:`~repro.mapreduce.faults.FaultPlan` (a fresh injector is
        built per run, so each run replays the same schedule) or a
        :class:`~repro.mapreduce.faults.FaultInjector` instance (reused
        across runs so tests can inspect its event log).  ``None`` falls
        back to the process-wide plan installed by ``--faults`` (see
        :func:`~repro.mapreduce.faults.set_default_fault_plan`).
    clock:
        Time source for backoff scheduling, deadlines, and speculation
        (``monotonic()`` / ``sleep()``).  Defaults to real monotonic time;
        tests substitute a fake to assert retry spacing instantly.
    tracer:
        Explicit tracer; defaults to the process-wide tracer, late-bound.
    """

    def __init__(
        self,
        executor: Executor | str | None = None,
        *,
        num_workers: int | None = None,
        retry_policy: RetryPolicy | None = None,
        fault_plan: FaultPlan | FaultInjector | None = None,
        clock: Any = None,
        tracer: Tracer | None = None,
    ):
        if num_workers is not None and num_workers <= 0:
            raise JobConfigError(f"num_workers must be >= 1, got {num_workers}")
        if retry_policy is not None:
            try:
                retry_policy.validate()
            except ValueError as exc:
                raise JobConfigError(str(exc)) from exc
        self.num_workers = num_workers
        self._tracer = tracer
        self._retry_policy = retry_policy
        self._fault_plan = fault_plan
        self._clock = clock if clock is not None else MonotonicClock()
        # Per-run context, refreshed by each public run()/run_chain() call.
        self._active_policy: RetryPolicy = retry_policy or RetryPolicy()
        self._active_injector: FaultInjector | None = None
        if isinstance(executor, Executor):
            self._executor: Executor | None = executor
            self._executor_name: str | None = executor.name
        else:
            self._executor = None
            self._executor_name = executor

    def _begin_run(self) -> None:
        """Resolve the retry policy and fault injector for one run.

        Precedence: explicit ``retry_policy`` > the fault plan's embedded
        policy > ``RetryPolicy()``.  The plan itself resolves explicit-plan
        > process-wide default.  A plan gets a *fresh* injector per run
        (same schedule every run); an injector instance is reused so its
        event log accumulates for inspection.
        """
        source = self._fault_plan
        if source is None:
            source = get_default_fault_plan()
        injector: FaultInjector | None = None
        plan: FaultPlan | None = None
        if isinstance(source, FaultInjector):
            injector, plan = source, source.plan
        elif source is not None:
            plan = source
            injector = FaultInjector(plan)
        policy = self._retry_policy
        if policy is None and plan is not None and plan.policy is not None:
            policy = plan.policy
        if policy is None:
            policy = RetryPolicy()
        self._active_policy = policy
        self._active_injector = injector

    @property
    def tracer(self) -> Tracer:
        """This runner's tracer (late-bound to the process default)."""
        return self._tracer if self._tracer is not None else get_tracer()

    @property
    def executor_name(self) -> str:
        """The executor this runner resolves to (for display/metadata)."""
        if self._executor is not None:
            return self._executor.name
        if self._executor_name is not None:
            return self._executor_name
        from repro.mapreduce.executors import default_executor_name

        return default_executor_name()

    def close(self) -> None:
        """Shut down an executor instance held by this runner."""
        if self._executor is not None:
            self._executor.shutdown()

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- public API -------------------------------------------------------------

    def run(self, job: Job, *, records: Sequence[Pair] | None = None) -> JobResult:
        """Execute one job over in-memory ``(key, value)`` records."""
        job.validate()
        if records is None:
            raise JobConfigError("records is required")
        splits = make_splits(records, job.conf.num_map_tasks)
        self._begin_run()
        with self._lease_executor() as ex:
            return self._run_job(ex, job, splits)

    def run_chain(self, chain: JobChain, records: Sequence[Pair]) -> ChainResult:
        """Execute a job chain, feeding each job the previous job's output."""
        self._begin_run()
        with self._lease_executor() as ex:
            current: List[Pair] = list(records)
            results: List[JobResult] = []
            with self.tracer.span(
                chain.name, kind="chain", stages=len(chain), executor=ex.name
            ):
                for builder in chain.stages:
                    job = builder(current)
                    job.validate()
                    splits = make_splits(current, job.conf.num_map_tasks)
                    result = self._run_job(ex, job, splits)
                    results.append(result)
                    current = list(result.output_pairs())
            return ChainResult(results=results)

    # -- single-job orchestration -------------------------------------------------

    def _run_job(self, ex: Executor, job: Job, splits: List[InputSplit]) -> JobResult:
        spec = JobSpec.of(job)
        counters = Counters()
        tracer = self.tracer
        streaming = StreamingShuffle(len(splits), job.conf.num_reducers)

        with tracer.span(
            job.name,
            kind="job",
            num_map_tasks=len(splits),
            num_reducers=job.conf.num_reducers,
            executor=ex.name,
        ) as job_span:
            try:
                with tracer.span("map", kind="phase", phase="map") as map_span:
                    t0 = time.perf_counter_ns()
                    map_results, lost = self._run_tasks(
                        ex,
                        execute_map_task,
                        spec,
                        "map",
                        splits,
                        on_done=_ingest_into(
                            streaming, self._active_policy.speculation
                        ),
                        counters=counters,
                    )
                    map_wall = (time.perf_counter_ns() - t0) / 1e9
                    map_span.set_attrs(tasks=len(map_results))

                map_stats = PhaseStats(kind=TaskKind.MAP)
                for _, task_counters, stats in map_results:
                    counters.merge(task_counters)
                    map_stats.tasks.append(stats)
                    _observe_task(stats)

                num_reducers = job.conf.num_reducers
                reduce_pending: _Pending = {}
                reduce_results: List[Any] = [None] * num_reducers
                partitions: List[Grouped] = []
                partition_records: List[int] = []
                with tracer.span("shuffle", kind="phase", phase="shuffle") as sh_span:
                    t1 = time.perf_counter_ns()
                    shuffle_stats = streaming.stats
                    shuffle_stats.observe(get_metrics())
                    # With a pool executor, launch each partition's reduce
                    # as soon as it is merged; the next partition's merge
                    # overlaps it.  Inline executors gain nothing and would
                    # mis-parent task spans, so they defer submission to
                    # the reduce phase.
                    overlap = not ex.inline
                    for part in range(num_reducers):
                        grouped = streaming.finalize(part)
                        partition_records.append(sum(len(vs) for _, vs in grouped))
                        if overlap:
                            future = self._submit_task(
                                ex, execute_reduce_task, spec, "reduce",
                                part, grouped, 1,
                            )
                            reduce_pending[future] = (part, grouped, 1)
                        else:
                            partitions.append(grouped)
                    shuffle_wall = (time.perf_counter_ns() - t1) / 1e9
                    if tracer.enabled:
                        sh_span.set_attrs(**shuffle_stats.as_dict())

                # Per-reduce-partition record counts: the skew the paper's
                # partitioning schemes compete on.
                observe_partition_skew(get_metrics(), partition_records)

                with tracer.span("reduce", kind="phase", phase="reduce") as red_span:
                    t2 = time.perf_counter_ns()
                    if reduce_pending:
                        lost.extend(
                            self._drain(
                                ex, execute_reduce_task, spec, "reduce",
                                reduce_pending, reduce_results,
                                counters=counters,
                            )
                        )
                    else:
                        reduce_results, reduce_lost = self._run_tasks(
                            ex, execute_reduce_task, spec, "reduce", partitions,
                            counters=counters,
                        )
                        lost.extend(reduce_lost)
                    reduce_wall = (time.perf_counter_ns() - t2) / 1e9
                    red_span.set_attrs(tasks=len(reduce_results))

                reduce_stats = PhaseStats(kind=TaskKind.REDUCE)
                outputs: List[List[Pair]] = []
                for output, task_counters, stats in reduce_results:
                    outputs.append(output)
                    counters.merge(task_counters)
                    reduce_stats.tasks.append(stats)
                    _observe_task(stats)

                if tracer.enabled:
                    job_span.set_attrs(
                        map_wall_s=round(map_wall, 9),
                        shuffle_wall_s=round(shuffle_wall, 9),
                        reduce_wall_s=round(reduce_wall, 9),
                        output_records=sum(len(p) for p in outputs),
                    )
                if lost:
                    job_span.set_attrs(partial=True, lost_partitions=list(lost))
            finally:
                streaming.close()

        get_metrics().absorb_counters(counters)
        return JobResult(
            job_name=job.name,
            outputs=outputs,
            counters=counters,
            map_stats=map_stats,
            reduce_stats=reduce_stats,
            shuffle_stats=shuffle_stats,
            map_wall_s=map_wall,
            shuffle_wall_s=shuffle_wall,
            reduce_wall_s=reduce_wall,
            executor=ex.name,
            partial=bool(lost),
            lost_partitions=list(lost),
        )

    # -- task submission and draining ---------------------------------------------

    @contextmanager
    def _lease_executor(self) -> Iterator[Executor]:
        """Yield the runner's executor; named executors live per lease."""
        if self._executor is not None:
            yield self._executor
            return
        ex = make_executor(self._executor_name, num_workers=self.num_workers)
        try:
            yield ex
        finally:
            ex.shutdown()

    def _submit_task(
        self,
        ex: Executor,
        fn: Callable[..., Any],
        spec: JobSpec,
        kind: str,
        index: int,
        payload: Any,
        attempt: int,
    ) -> TaskFuture:
        """Submit one task attempt; inline executors trace it right here.

        The fault injector (when armed) is consulted per attempt *in the
        driver* — where decisions are deterministic — and its verdict rides
        to the task body through the picklable
        :func:`~repro.mapreduce.faults.apply_fault` wrapper.
        """
        decision: FaultDecision | None = None
        if self._active_injector is not None:
            decision = self._active_injector.decide(spec.name, kind, index, attempt)
            if decision is not None:
                get_metrics().counter(f"task.{kind}.faults_injected").inc()
        timeout_s = self._active_policy.task_timeout_s
        if ex.inline:
            return ex.submit(
                self._run_attempt_inline,
                fn, spec, kind, index, payload, attempt, ex.name,
                decision, timeout_s,
            )
        if decision is not None:
            return ex.submit(apply_fault, decision, timeout_s, fn, spec, index, payload)
        return ex.submit(fn, spec, index, payload)

    def _run_attempt_inline(
        self,
        fn: Callable[..., Any],
        spec: JobSpec,
        kind: str,
        index: int,
        payload: Any,
        attempt: int,
        executor_name: str,
        decision: FaultDecision | None = None,
        timeout_s: float | None = None,
    ) -> Any:
        """Execute one attempt in the driver under a real task span."""
        tracer = self.tracer
        with tracer.span(
            f"{kind}-{index}",
            kind="task",
            attempt=attempt,
            executor=executor_name,
        ) as span:
            if decision is not None:
                result = apply_fault(decision, timeout_s, fn, spec, index, payload)
            else:
                result = fn(spec, index, payload)
            _, _, stats = result
            if attempt > 1:
                stats.attempt = attempt
            if tracer.enabled:
                span.set_attrs(**_task_span_attrs(stats))
        return result

    def _drain(
        self,
        ex: Executor,
        fn: Callable[..., Any],
        spec: JobSpec,
        kind: str,
        pending: _Pending,
        results: List[Any],
        *,
        on_done: Callable[[int, Any], Any] | None = None,
        counters: Counters | None = None,
    ) -> List[str]:
        """Drive pending futures to completion under the active RetryPolicy.

        Successful pool tasks are recorded as synthetic spans; every failed
        attempt is traced, counted, and — within the retry budget —
        rescheduled after its backoff delay (``decision="retry"`` spans
        mark each reschedule).  Futures past ``task_timeout_s`` are
        abandoned (pool executors only; the worker is marked suspect) and
        retried as timeouts; stragglers get speculative backups whose
        losing attempt is discarded before commit.  ``on_done`` fires once
        per task on its first committed result (its non-``None`` return
        replaces the stored result — the streaming shuffle uses this to
        drop map buffers it has already ingested).

        Returns the task ids lost terminally under ``on_lost="degrade"``
        (empty outputs committed in their place); under ``on_lost="fail"``
        raises :class:`JobFailedError` carrying all exhausted tasks'
        attempt errors plus the completed tasks' stats.
        """
        tracer = self.tracer
        policy = self._active_policy
        clock = self._clock
        metrics = get_metrics()
        failures: Dict[int, List[TaskError]] = {}
        exhausted: set[int] = set()
        lost: List[str] = []
        #: Indices with a committed outcome (result, loss, or exhaustion);
        #: late twin futures for a settled index are discarded, not read.
        settled: set[int] = set()
        #: Backoff queue: (ready_at, index, payload, attempt).
        delayed: List[Tuple[float, int, Any, int]] = []
        speculated: set[int] = set()
        durations: List[float] = []
        started: Dict[TaskFuture, float] = {}
        entry_now = clock.monotonic()
        for future in pending:
            started.setdefault(future, entry_now)

        def in_flight(index: int) -> bool:
            """A live or queued twin attempt exists for this index."""
            return any(e[0] == index for e in pending.values()) or any(
                d[1] == index for d in delayed
            )

        def commit_lost(index: int, attempt: int) -> None:
            """Degraded mode: substitute an empty output and move on."""
            task_id = f"{kind}-{index}"
            settled.add(index)
            lost.append(task_id)
            metrics.counter(f"task.{kind}.lost").inc()
            if counters is not None:
                counters.framework("tasks_lost")
            tracer.record_span(
                task_id, kind="decision",
                decision="degrade", attempt=attempt,
                task_kind=kind, executor=ex.name,
            )
            get_events().emit(
                "task.degraded", task=task_id, attempt=attempt, job=spec.name
            )
            result = _lost_placeholder(spec, kind, index, attempt)
            if on_done is not None:
                replaced = on_done(index, result)
                if replaced is not None:
                    result = replaced
            results[index] = result

        def settle_failure(
            index: int, payload: Any, attempt: int, failure: TaskError
        ) -> None:
            """Record one failed attempt; retry, degrade, or exhaust."""
            self._note_failure(ex, kind, index, attempt, failure, failures)
            if isinstance(failure, TaskTimeoutError):
                metrics.counter(f"task.{kind}.timeouts").inc()
                if counters is not None:
                    counters.framework("task_timeouts")
            if in_flight(index):
                return  # a speculative twin is still running; let it decide
            task_id = f"{kind}-{index}"
            if attempt <= policy.max_retries:
                delay = policy.backoff_s(task_id, attempt + 1)
                metrics.counter(f"task.{kind}.retries").inc()
                if counters is not None:
                    counters.framework("task_retries")
                tracer.record_span(
                    task_id, kind="decision",
                    decision="retry", attempt=attempt + 1,
                    backoff_s=round(delay, 9),
                    task_kind=kind, executor=ex.name,
                )
                get_events().emit(
                    "task.retry", task=task_id, attempt=attempt + 1,
                    backoff_s=round(delay, 6), job=spec.name,
                )
                delayed.append((clock.monotonic() + delay, index, payload, attempt + 1))
            elif policy.on_lost == "degrade":
                commit_lost(index, attempt)
            else:
                exhausted.add(index)
                settled.add(index)

        while True:
            now = clock.monotonic()
            # Launch retries whose backoff has elapsed.
            waiting: List[Tuple[float, int, Any, int]] = []
            for ready_at, index, payload, attempt in delayed:
                if index in settled:
                    continue
                if ready_at <= now:
                    future = self._submit_task(
                        ex, fn, spec, kind, index, payload, attempt
                    )
                    pending[future] = (index, payload, attempt)
                    started[future] = now
                else:
                    waiting.append((ready_at, index, payload, attempt))
            delayed = waiting
            live = [f for f, e in pending.items() if e[0] not in settled]
            if not live:
                if not delayed:
                    break  # every index settled (twin leftovers are garbage)
                # All runnable work is waiting out a backoff delay.
                next_ready = min(d[0] for d in delayed)
                clock.sleep(max(0.0, next_ready - clock.monotonic()))
                continue
            if ex.inline:
                # Inline futures resolve during submit: nothing to wait on.
                done = live
            else:
                # Pool executors hand back concurrent.futures.Future objects.
                done, _ = wait(
                    cast(List[Future], live),
                    timeout=_drain_wait_timeout(
                        policy, live, started, delayed, durations, now
                    ),
                    return_when=FIRST_COMPLETED,
                )
            for future in sorted(done, key=lambda f: pending[f][0]):
                index, payload, attempt = pending.pop(future)
                started.pop(future, None)
                if index in settled:
                    # Losing speculative attempt: discard before commit.
                    metrics.counter(f"task.{kind}.duplicates_discarded").inc()
                    continue
                try:
                    result = future.result()
                except TaskError as exc:
                    settle_failure(index, payload, attempt, exc)
                    continue
                except Exception as exc:  # worker crashed outside user code
                    if ex.inline:
                        raise
                    failure = TaskError(f"{kind}-{index}", exc)
                    self._note_failure(ex, kind, index, attempt, failure, failures)
                    if policy.on_lost == "degrade" and not in_flight(index):
                        commit_lost(index, attempt)
                    else:
                        exhausted.add(index)
                        settled.add(index)
                    continue
                _, _, stats = result
                if attempt > 1:
                    stats.attempt = attempt
                durations.append(stats.duration_s)
                if not ex.inline and tracer.enabled:
                    span_extra = (
                        {"speculative": True} if index in speculated else {}
                    )
                    tracer.record_span(
                        stats.task_id,
                        kind="task",
                        duration_ns=int(stats.duration_s * 1e9),
                        executor=ex.name,
                        **span_extra,
                        **_task_span_attrs(stats),
                    )
                if on_done is not None:
                    replaced = on_done(index, result)
                    if replaced is not None:
                        result = replaced
                results[index] = result
                settled.add(index)

            now = clock.monotonic()
            # Deadline watchdog: abandon futures past their wall-clock
            # budget.  Pool executors only — inline futures resolve during
            # submit, so a deadline can only be honoured cooperatively.
            if policy.task_timeout_s is not None and not ex.inline:
                for future in list(pending):
                    index, payload, attempt = pending[future]
                    if index in settled or future.done():
                        continue
                    if now - started.get(future, now) >= policy.task_timeout_s:
                        del pending[future]
                        started.pop(future, None)
                        if not ex.cancel(future):
                            # Still running: the future is abandoned (its
                            # result will never be read) and its worker
                            # slot is suspect until the body returns.
                            metrics.counter("executor.suspect_workers").inc()
                        tracer.record_span(
                            f"{kind}-{index}", kind="decision",
                            decision="timeout", attempt=attempt,
                            timeout_s=policy.task_timeout_s,
                            task_kind=kind, executor=ex.name,
                        )
                        get_events().emit(
                            "task.timeout", task=f"{kind}-{index}",
                            attempt=attempt, timeout_s=policy.task_timeout_s,
                            job=spec.name,
                        )
                        settle_failure(
                            index, payload, attempt,
                            TaskTimeoutError(
                                f"{kind}-{index}", policy.task_timeout_s
                            ),
                        )
            # Speculation: back up stragglers once enough completions
            # establish a median to compare against (first finisher wins).
            if (
                policy.speculation
                and not ex.inline
                and len(durations) >= policy.speculation_min_completed
            ):
                threshold = policy.speculation_factor * statistics.median(durations)
                for future in list(pending):
                    index, payload, attempt = pending[future]
                    if index in settled or index in speculated or future.done():
                        continue
                    elapsed = now - started.get(future, now)
                    if elapsed > threshold:
                        speculated.add(index)
                        metrics.counter(f"task.{kind}.speculative").inc()
                        if counters is not None:
                            counters.framework("speculative_attempts")
                        tracer.record_span(
                            f"{kind}-{index}", kind="decision",
                            decision="speculate", attempt=attempt,
                            elapsed_s=round(elapsed, 9),
                            task_kind=kind, executor=ex.name,
                        )
                        get_events().emit(
                            "task.speculate", task=f"{kind}-{index}",
                            attempt=attempt, elapsed_s=round(elapsed, 6),
                            job=spec.name,
                        )
                        backup = self._submit_task(
                            ex, fn, spec, kind, index, payload, attempt
                        )
                        pending[backup] = (index, payload, attempt)
                        started[backup] = now
        if exhausted:
            raise JobFailedError(
                spec.name,
                [err for i in sorted(exhausted) for err in failures[i]],
                completed_stats=[r[2] for r in results if r is not None],
            )
        return lost

    def _run_tasks(
        self,
        ex: Executor,
        fn: Callable[..., Any],
        spec: JobSpec,
        kind: str,
        items: Sequence[Any],
        *,
        on_done: Callable[[int, Any], Any] | None = None,
        counters: Counters | None = None,
    ) -> Tuple[List[Any], List[str]]:
        """Submit one task per item and drain them all.

        Returns ``(results, lost task ids)`` — the latter non-empty only
        under ``RetryPolicy(on_lost="degrade")``.
        """
        results: List[Any] = [None] * len(items)
        pending: _Pending = {}
        for index, item in enumerate(items):
            future = self._submit_task(ex, fn, spec, kind, index, item, 1)
            pending[future] = (index, item, 1)
        lost = self._drain(
            ex, fn, spec, kind, pending, results,
            on_done=on_done, counters=counters,
        )
        return results, lost

    def _note_failure(
        self,
        ex: Executor,
        kind: str,
        index: int,
        attempt: int,
        exc: TaskError,
        failures: Dict[int, List[TaskError]],
    ) -> None:
        """Trace/metric footprint of one failed task attempt."""
        failures.setdefault(index, []).append(exc)
        get_metrics().counter(f"task.{kind}.failures").inc()
        if not ex.inline:
            # Inline attempts traced their own error span as they raised.
            self.tracer.record_span(
                exc.task_id,
                kind="task",
                status="error",
                attempt=attempt,
                task_kind=kind,
                executor=ex.name,
                error=str(exc.cause),
            )


def _drain_wait_timeout(
    policy: RetryPolicy,
    live: List[TaskFuture],
    started: Dict[TaskFuture, float],
    delayed: List[Tuple[float, int, Any, int]],
    durations: List[float],
    now: float,
) -> float | None:
    """How long a pool drain may block before its next housekeeping pass.

    ``None`` (block until a future completes) whenever nothing is
    scheduled: no backoff expiry pending, no deadline to enforce, no armed
    speculation.  Otherwise the earliest of those three, floored at zero.
    """
    candidates: List[float] = []
    if delayed:
        candidates.append(max(0.0, min(d[0] for d in delayed) - now))
    if policy.task_timeout_s is not None:
        deadlines = [
            started[f] + policy.task_timeout_s - now for f in live if f in started
        ]
        if deadlines:
            candidates.append(max(0.0, min(deadlines)))
    if policy.speculation and len(durations) >= policy.speculation_min_completed:
        candidates.append(policy.speculation_poll_s)
    return min(candidates) if candidates else None


def _lost_placeholder(spec: JobSpec, kind: str, index: int, attempt: int) -> Any:
    """The empty committed result of a terminally-lost task.

    Shaped like the real task result so downstream aggregation (counter
    merge, stats, streaming ingest — whose completeness gate must still be
    satisfied) runs unchanged: a lost map task contributes an empty buffer
    per reduce partition, a lost reduce task an empty output list.
    """
    task_kind = TaskKind.MAP if kind == "map" else TaskKind.REDUCE
    stats = TaskStats(
        task_id=f"{kind}-{index}",
        kind=task_kind,
        attempt=attempt,
        partition=index if kind == "reduce" else -1,
    )
    if kind == "map":
        return ([[] for _ in range(spec.num_reducers)], Counters(), stats)
    return ([], Counters(), stats)


def _ingest_into(
    streaming: StreamingShuffle,
    speculation: bool = False,
) -> Callable[[int, Any], Any]:
    """Drain callback feeding finished map tasks into a streaming shuffle.

    Ingested buffers are replaced by ``None`` in the stored result, so the
    runner holds one copy of the intermediate data, not two.  Under a
    speculating policy, duplicate buffers from a losing backup attempt are
    discarded at the shuffle boundary (the drain loop's ``settled`` index
    set already prevents this in practice — the shuffle-side discard is
    the commit-barrier backstop).
    """
    on_duplicate = "discard" if speculation else "raise"

    def _ingest(index: int, result: Any) -> Any:
        buffers, task_counters, stats = result
        # The task's bytes_out already counted every pair it emitted.
        streaming.ingest(
            index, buffers, on_duplicate=on_duplicate, nbytes=stats.bytes_out
        )
        return (None, task_counters, stats)

    return _ingest


def run_job(
    job: Job,
    *,
    records: Sequence[Pair] | None = None,
    runner: Runner | None = None,
) -> JobResult:
    """One-call convenience: run ``job`` with the given or default runner.

    The default runner picks its executor from ``$REPRO_EXECUTOR`` (serial
    when unset), which is how the CI executor matrix exercises every
    backend without per-test plumbing.
    """
    runner = runner or Runner()
    return runner.run(job, records=records)
