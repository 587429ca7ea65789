"""Differential suite: the execution policy must never change results.

The executors refactor's core invariant is that serial, thread-pool, and
process-pool backends run the *same* orchestration (one ``Runner``), so for
any job — including every skyline method, retried tasks, and failing tasks —
outputs, counters, and failure semantics are identical across executors.

Every mapper/reducer here is module-level so the jobs stay picklable under
the process executor.
"""

import os

import numpy as np
import pytest

from repro.core.mr_skyline import run_mr_skyline
from repro.mapreduce import (
    EXECUTOR_NAMES,
    Job,
    JobConf,
    JobConfigError,
    JobFailedError,
    Mapper,
    ProcessExecutor,
    Reducer,
    RetryPolicy,
    Runner,
    SerialExecutor,
    ThreadExecutor,
    default_executor_name,
    make_executor,
)

POOL_WORKERS = 2


class TokenMapper(Mapper):
    def map(self, key, value, ctx):
        for word in value.split():
            ctx.emit(word, 1)
            ctx.increment("app", "tokens")


class SumReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


class CrashOnXMapper(Mapper):
    def map(self, key, value, ctx):
        if value == "x":
            raise RuntimeError("poisoned record")
        ctx.emit(value, 1)


class FlakyOnceMapper(Mapper):
    """Fails the task's first attempt, succeeds on retry.

    The "already attempted" state is a flag file (``params["flag_dir"]``)
    so it survives the process pool's round-trip — in-memory state would
    reset in a fresh worker.
    """

    def map(self, key, value, ctx):
        flag = os.path.join(self.params["flag_dir"], "attempted")
        if not os.path.exists(flag):
            with open(flag, "w"):
                pass
            raise RuntimeError("transient failure")
        for word in value.split():
            ctx.emit(word, 1)


WORDS = [(None, "a b a"), (None, "b b c"), (None, "c a d")]
EXPECTED = {"a": 3, "b": 3, "c": 2, "d": 1}


def _wordcount_job(**conf):
    conf.setdefault("num_reducers", 2)
    conf.setdefault("num_map_tasks", 3)
    return Job(
        name="wordcount",
        mapper=TokenMapper,
        reducer=SumReducer,
        conf=JobConf(**conf),
    )


def _run(executor, job, records, **runner_kwargs):
    with Runner(executor, num_workers=POOL_WORKERS, **runner_kwargs) as runner:
        return runner.run(job, records=records)


@pytest.fixture(scope="module")
def serial_wordcount():
    return _run("serial", _wordcount_job(), WORDS)


class TestDifferentialWordcount:
    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    def test_outputs_and_counters_identical(self, executor, serial_wordcount):
        result = _run(executor, _wordcount_job(), WORDS)
        assert dict(result.output_pairs()) == EXPECTED
        assert result.outputs == serial_wordcount.outputs
        assert result.counters == serial_wordcount.counters
        assert result.executor == executor


class TestDifferentialSkyline:
    """All three methods × all three executors: identical skylines."""

    @pytest.fixture(scope="class")
    def points(self):
        rng = np.random.default_rng(7)
        return rng.random((600, 4))

    @pytest.fixture(scope="class")
    def baselines(self, points):
        return {
            method: run_mr_skyline(
                points, method=method, num_workers=2, executor="serial"
            )
            for method in ("dim", "grid", "angle")
        }

    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    @pytest.mark.parametrize("method", ["dim", "grid", "angle"])
    def test_matches_serial_baseline(self, method, executor, points, baselines):
        base = baselines[method]
        result = run_mr_skyline(
            points, method=method, num_workers=2, executor=executor
        )
        assert np.array_equal(result.global_indices, base.global_indices)
        assert result.local_skylines.keys() == base.local_skylines.keys()
        for part, indices in base.local_skylines.items():
            assert np.array_equal(result.local_skylines[part], indices)
        assert result.counters == base.counters
        assert result.executor == executor


class TestDifferentialRetries:
    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    def test_forced_retry_recovers_identically(self, executor, tmp_path):
        job = Job(
            name="flaky",
            mapper=FlakyOnceMapper,
            reducer=SumReducer,
            conf=JobConf(
                num_reducers=2,
                num_map_tasks=1,
                params={"flag_dir": str(tmp_path)},
            ),
        )
        result = _run(executor, job, WORDS, retry_policy=RetryPolicy(max_retries=2))
        assert dict(result.output_pairs()) == EXPECTED
        assert result.executor == executor

    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    def test_exhausted_retries_raise_with_all_attempts(self, executor):
        job = Job(
            name="crash",
            mapper=CrashOnXMapper,
            reducer=SumReducer,
            conf=JobConf(num_reducers=1),
        )
        with pytest.raises(JobFailedError) as info:
            _run(executor, job, [(None, "x")], retry_policy=RetryPolicy(max_retries=2))
        assert len(info.value.failures) == 3  # 1 try + 2 retries
        assert all(
            "poisoned record" in str(f.cause) for f in info.value.failures
        )


class TestDifferentialFailures:
    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    def test_completed_stats_survive_failure(self, executor):
        job = Job(
            name="crash",
            mapper=CrashOnXMapper,
            reducer=SumReducer,
            conf=JobConf(num_reducers=1, num_map_tasks=3),
        )
        records = [(None, "a"), (None, "b"), (None, "x")]
        with pytest.raises(JobFailedError) as info:
            _run(executor, job, records)
        assert len(info.value.failures) == 1
        assert "poisoned record" in str(info.value.failures[0].cause)
        # The two healthy tasks completed and report timings regardless of
        # which backend ran them.
        assert len(info.value.completed_stats) == 2


def _square(x):  # module-level: the process pool must pickle it
    return x * x


class TestExecutorPrimitives:
    def test_serial_is_inline_and_captures_exceptions(self):
        ex = SerialExecutor()
        assert ex.inline
        assert ex.submit(_square, 3).result() == 9
        fut = ex.submit(lambda: 1 / 0)
        assert isinstance(fut.exception(), ZeroDivisionError)

    def test_serial_futures_are_done_at_submit(self):
        ex = SerialExecutor()
        ok = ex.submit(_square, 2)
        failed = ex.submit(lambda: 1 / 0)
        assert ok.done() and failed.done()
        assert not ex.cancel(ok) and not ex.cancel(failed)
        assert ok.result() == 4
        with pytest.raises(ZeroDivisionError):
            failed.result()

    @pytest.mark.parametrize("cls", [ThreadExecutor, ProcessExecutor])
    def test_pools_lazily_recreate_after_shutdown(self, cls):
        ex = cls(num_workers=1)
        assert not ex.inline
        assert ex.submit(_square, 4).result() == 16
        ex.shutdown()
        # A released executor must come back to life on the next submit —
        # the CLI reuses one sized instance across experiments.
        assert ex.submit(_square, 5).result() == 25
        ex.shutdown()

    @pytest.mark.parametrize("cls", [ThreadExecutor, ProcessExecutor])
    def test_pool_worker_count_validated(self, cls):
        with pytest.raises(JobConfigError):
            cls(num_workers=0)

    def test_make_executor_passthrough_and_names(self):
        ex = SerialExecutor()
        assert make_executor(ex) is ex
        assert make_executor("serial").name == "serial"
        assert make_executor(None).name == default_executor_name()
        with pytest.raises(JobConfigError):
            make_executor("bogus")

    def test_env_var_selects_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", " Threads ")
        assert default_executor_name() == "threads"
        result = Runner().run(_wordcount_job(), records=WORDS)
        assert result.executor == "threads"
        assert dict(result.output_pairs()) == EXPECTED

    def test_runner_reports_executor_name(self):
        with Runner("threads", num_workers=1) as runner:
            assert runner.executor_name == "threads"
            result = runner.run(_wordcount_job(), records=WORDS)
        assert result.executor == "threads"
        assert result.summary()["executor"] == "threads"
