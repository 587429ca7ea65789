"""End-to-end tests for the serial and multiprocessing runners."""

import time

import numpy as np
import pytest

from repro.mapreduce import (
    Job,
    JobChain,
    JobConf,
    JobConfigError,
    JobFailedError,
    Mapper,
    Reducer,
    RetryPolicy,
    Runner,
    SingleReducerPartitioner,
    run_job,
)
from repro.mapreduce.types import TaskKind


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


# Module-level so the job stays picklable under REPRO_EXECUTOR=processes.
class ArrayMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.emit(0, np.asarray(value))


class StackReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, np.vstack(list(values)).sum())


class PassThroughMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.emit(key, value)


#: Fixed cost of one SleepySumReducer partition.
REDUCE_SLEEP_S = 0.02


class SleepySumReducer(Reducer):
    """Sums like SumReducer, then sleeps once per partition."""

    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))

    def cleanup(self, ctx):
        time.sleep(REDUCE_SLEEP_S)


def _wordcount_job(reducers=2, maps=2, combiner=None):
    return Job(
        name="wordcount",
        mapper=TokenMapper,
        reducer=SumReducer,
        combiner=combiner,
        conf=JobConf(num_reducers=reducers, num_map_tasks=maps),
    )


WORDS = [(None, "a b a"), (None, "b b c"), (None, "c a d")]
EXPECTED = {"a": 3, "b": 3, "c": 2, "d": 1}


class TestSerialRunner:
    def test_wordcount(self):
        result = run_job(_wordcount_job(), records=WORDS)
        assert dict(result.output_pairs()) == EXPECTED

    def test_counters_merged(self):
        result = run_job(_wordcount_job(), records=WORDS)
        assert result.counters.value("app", "tokens") == 9
        assert result.counters.value("framework", "map_input_records") == 3

    def test_task_stats_populated(self):
        result = run_job(_wordcount_job(maps=3), records=WORDS)
        assert len(result.map_stats) == 3
        assert len(result.reduce_stats) == 2
        assert result.map_stats.kind is TaskKind.MAP
        assert result.map_stats.records_in == 3
        assert all(t.duration_s >= 0 for t in result.map_stats.tasks)
        assert result.wall_s > 0

    def test_combiner_does_not_change_result(self):
        plain = run_job(_wordcount_job(), records=WORDS)
        combined = run_job(_wordcount_job(combiner=SumReducer), records=WORDS)
        assert dict(plain.output_pairs()) == dict(combined.output_pairs())
        assert (
            combined.shuffle_stats.records < plain.shuffle_stats.records
        ), "combiner should shrink shuffle volume"

    def test_single_reducer_partitioner(self):
        job = Job(
            name="single",
            mapper=TokenMapper,
            reducer=SumReducer,
            conf=JobConf(
                num_reducers=3, partitioner=SingleReducerPartitioner()
            ),
        )
        result = run_job(job, records=WORDS)
        assert [len(p) for p in result.outputs] == [4, 0, 0]

    def test_requires_exactly_one_input(self):
        with pytest.raises(JobConfigError):
            run_job(_wordcount_job())

    def test_file_input(self):
        result = run_job(_wordcount_job(maps=3), records=WORDS)
        assert len(result.map_stats) > 1
        assert dict(result.output_pairs()) == EXPECTED

    def test_failing_task_raises_job_failed(self):
        job = Job(
            name="crash",
            mapper=CrashOnXMapper,
            reducer=SumReducer,
            conf=JobConf(num_reducers=1),
        )
        with pytest.raises(JobFailedError) as info:
            run_job(job, records=[(None, "ok"), (None, "x")])
        assert "crash" in str(info.value)

    def test_validation_rejects_non_mapper(self):
        job = Job(name="bad", mapper=SumReducer, reducer=SumReducer)  # type: ignore[arg-type]
        with pytest.raises(JobConfigError):
            run_job(job, records=WORDS)

    def test_empty_input(self):
        result = run_job(_wordcount_job(), records=[])
        assert list(result.output_pairs()) == []

    def test_numpy_values_flow_through(self):
        job = Job(
            name="np",
            mapper=ArrayMapper,
            reducer=StackReducer,
            conf=JobConf(num_reducers=1),
        )
        result = run_job(job, records=[(0, [1.0, 2.0]), (1, [3.0, 4.0])])
        assert list(result.output_values()) == [10.0]


class TestRetries:
    def test_deterministic_failure_exhausts_retries(self):
        job = Job(
            name="crash",
            mapper=CrashOnXMapper,
            reducer=SumReducer,
            conf=JobConf(num_reducers=1),
        )
        runner = Runner("serial", retry_policy=RetryPolicy(max_retries=2))
        with pytest.raises(JobFailedError) as info:
            runner.run(job, records=[(None, "x")])
        assert len(info.value.failures) == 3  # 1 try + 2 retries

    def test_negative_retries_rejected(self):
        with pytest.raises(JobConfigError):
            Runner(retry_policy=RetryPolicy(max_retries=-1))


class TestJobChain:
    def test_two_stage_pipeline(self):
        def stage1(records):
            return _wordcount_job()

        def stage2(records):
            # Second job: re-key counts by parity of the count.
            class ParityMapper(Mapper):
                def map(self, key, value, ctx):
                    ctx.emit(value % 2, 1)

            return Job(
                name="parity",
                mapper=ParityMapper,
                reducer=SumReducer,
                conf=JobConf(num_reducers=1),
            )

        chain = JobChain("wc-parity", [stage1, stage2])
        result = Runner("serial").run_chain(chain, WORDS)
        assert len(result.results) == 2
        # counts are {3,3,2,1} -> parities {1:2 odd, 0:1}... 3,3 odd, 2 even, 1 odd
        assert dict(result.final.output_pairs()) == {0: 1, 1: 3}
        assert result.wall_s >= result.final.wall_s

    def test_phase_stats_concatenated(self):
        class CountKeyMapper(Mapper):
            def map(self, key, value, ctx):
                ctx.emit(key, value)

        second = Job(
            name="passthrough",
            mapper=CountKeyMapper,
            reducer=SumReducer,
            conf=JobConf(num_reducers=1, num_map_tasks=1),
        )
        chain = JobChain("x", [lambda r: _wordcount_job(), lambda r: second])
        result = Runner("serial").run_chain(chain, WORDS)
        assert len(result.phase_stats(TaskKind.MAP)) == 3

    def test_empty_chain_rejected(self):
        with pytest.raises(JobConfigError):
            JobChain("empty", [])

    @pytest.mark.parametrize("executor", ["serial", "threads"])
    def test_phase_walls_are_disjoint(self, executor):
        # Reduces run in the reduce phase, never inside the shuffle loop:
        # the chain's summed phase walls fit inside the elapsed time.
        def stage1(records):
            return Job(
                name="sleepy-wordcount",
                mapper=TokenMapper,
                reducer=SleepySumReducer,
                conf=JobConf(num_reducers=2, num_map_tasks=2),
            )

        def stage2(records):
            return Job(
                name="sleepy-passthrough",
                mapper=PassThroughMapper,
                reducer=SleepySumReducer,
                conf=JobConf(num_reducers=1, num_map_tasks=1),
            )

        chain = JobChain("sleepy", [stage1, stage2])
        t0 = time.perf_counter()
        result = Runner(executor, num_workers=2).run_chain(chain, WORDS)
        elapsed = time.perf_counter() - t0
        assert result.wall_s <= elapsed
        for job in result.results:
            assert job.shuffle_wall_s < REDUCE_SLEEP_S


class TestMultiprocessRunner:
    def test_matches_serial(self):
        serial = run_job(_wordcount_job(maps=3), records=WORDS)
        mp = Runner("processes", num_workers=2).run(
            _wordcount_job(maps=3), records=WORDS
        )
        assert dict(mp.output_pairs()) == dict(serial.output_pairs())
        assert mp.counters.value("app", "tokens") == 9

    def test_failure_propagates(self):
        job = Job(
            name="crash",
            mapper=CrashOnXMapper,
            reducer=SumReducer,
            conf=JobConf(num_reducers=1),
        )
        with pytest.raises(JobFailedError):
            Runner("processes", num_workers=2).run(job, records=[(None, "x")])

    def test_failure_preserves_real_cause(self):
        # TaskError must survive the pool's pickle round-trip; a broken
        # round-trip kills the worker result pipe and masks the user error
        # as BrokenProcessPool.
        job = Job(
            name="crash",
            mapper=CrashOnXMapper,
            reducer=SumReducer,
            conf=JobConf(num_reducers=1, num_map_tasks=3),
        )
        records = [(None, "a"), (None, "b"), (None, "x")]
        with pytest.raises(JobFailedError) as info:
            Runner("processes", num_workers=2).run(job, records=records)
        assert len(info.value.failures) == 1
        assert "poisoned record" in str(info.value.failures[0].cause)
        # The two healthy tasks still completed and report their timings.
        assert len(info.value.completed_stats) == 2

    def test_bad_worker_count(self):
        with pytest.raises(JobConfigError):
            Runner("processes", num_workers=0)
