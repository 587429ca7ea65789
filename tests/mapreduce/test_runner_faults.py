"""Runner-level fault tolerance: retries, timeouts, speculation, degradation.

Each test injects faults through a :class:`FaultPlan` and asserts the runner
recovers to the *same* wordcount answer a fault-free run produces — plus the
framework counters that prove the recovery path actually ran.  The mocked
clock makes backoff spacing assertable without real sleeps.

Everything here is module-level so jobs stay picklable under the process
executor (same convention as test_executors.py).
"""

import pickle

import pytest

from repro.mapreduce import (
    EXECUTOR_NAMES,
    FaultInjector,
    FaultPlan,
    FaultRule,
    InjectedFault,
    Job,
    JobConf,
    JobConfigError,
    JobFailedError,
    Mapper,
    Reducer,
    RetryPolicy,
    Runner,
    TaskTimeoutError,
)

POOL_WORKERS = 2


class TokenMapper(Mapper):
    def map(self, key, value, ctx):
        for word in value.split():
            ctx.emit(word, 1)


class SumReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


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


def _run(executor, plan, policy=None, clock=None, records=WORDS):
    with Runner(
        executor,
        num_workers=POOL_WORKERS,
        retry_policy=policy,
        fault_plan=plan,
        clock=clock,
    ) as runner:
        return runner.run(_wordcount_job(), records=records)


def _framework(result, name):
    return result.counters.value("framework", name)


class FakeClock:
    """Monotonic clock whose sleeps advance time instantly (and are logged)."""

    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += max(0.0, seconds)


class TestRetryBackoffSpacing:
    def test_retries_sleep_exactly_the_policy_backoffs(self):
        plan = FaultPlan(
            rules=(FaultRule(fault="crash", kind="map", index=0, times=2),)
        )
        policy = RetryPolicy(
            max_retries=3, backoff_base_s=1.0, backoff_factor=2.0, jitter=0.0
        )
        clock = FakeClock()
        result = _run("serial", plan, policy, clock)
        assert dict(result.output_pairs()) == EXPECTED
        # Attempt 2 waits base, attempt 3 waits base*factor — no jitter.
        assert clock.sleeps == [1.0, 2.0]
        assert _framework(result, "task_retries") == 2

    def test_jittered_spacing_matches_the_seeded_policy_exactly(self):
        plan = FaultPlan(
            rules=(FaultRule(fault="crash", kind="map", index=0, times=2),)
        )
        policy = RetryPolicy(
            max_retries=3, backoff_base_s=1.0, jitter=0.5, seed=7
        )
        clock = FakeClock()
        result = _run("serial", plan, policy, clock)
        assert dict(result.output_pairs()) == EXPECTED
        expected = [policy.backoff_s("map-0", 2), policy.backoff_s("map-0", 3)]
        assert clock.sleeps == expected
        # Jitter moved the delays off the pre-jitter curve but kept them
        # inside the +/-50% band.
        for attempt, slept in zip((2, 3), clock.sleeps):
            base = policy.pre_jitter_backoff_s(attempt)
            assert base * 0.5 <= slept <= base * 1.5
            assert slept != base

    def test_zero_backoff_never_sleeps(self):
        plan = FaultPlan(
            rules=(FaultRule(fault="crash", kind="map", index=1, times=1),)
        )
        clock = FakeClock()
        result = _run("serial", plan, RetryPolicy(max_retries=1), clock)
        assert dict(result.output_pairs()) == EXPECTED
        # The retry is resubmitted in the same loop pass — no sleep at all.
        assert clock.sleeps == []


class TestTimeouts:
    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    def test_cooperative_hang_times_out_and_retries_everywhere(self, executor):
        """A hang that meets the deadline costs exactly one timeout + retry
        on every executor — inline included, where no watchdog exists."""
        plan = FaultPlan(
            rules=(
                FaultRule(fault="hang", kind="map", index=0, hang_s=5.0, times=1),
            )
        )
        policy = RetryPolicy(max_retries=1, task_timeout_s=0.2)
        result = _run(executor, plan, policy)
        assert dict(result.output_pairs()) == EXPECTED
        assert not result.partial
        assert _framework(result, "task_timeouts") == 1
        assert _framework(result, "task_retries") == 1

    def test_noncooperative_hang_is_abandoned_by_the_watchdog(self):
        """A task that sleeps through its deadline is abandoned driver-side;
        the retry completes while the hung thread is still asleep."""
        plan = FaultPlan(
            rules=(
                FaultRule(
                    fault="hang", kind="map", index=0,
                    hang_s=0.5, cooperative=False, times=1,
                ),
            )
        )
        policy = RetryPolicy(max_retries=1, task_timeout_s=0.1)
        result = _run("threads", plan, policy)
        assert dict(result.output_pairs()) == EXPECTED
        assert _framework(result, "task_timeouts") == 1
        assert _framework(result, "task_retries") == 1

    def test_task_timeout_error_pickles_losslessly(self):
        """TaskError.__reduce__ replays (task_id, cause); the timeout
        subclass carries (task_id, timeout_s) instead and must override it,
        or the process pool mangles every timeout it transports."""
        original = TaskTimeoutError("map-3", 0.25)
        clone = pickle.loads(pickle.dumps(original))
        assert isinstance(clone, TaskTimeoutError)
        assert clone.task_id == "map-3"
        assert clone.timeout_s == 0.25
        assert str(clone) == str(original)

    def test_hung_map_cannot_wedge_streaming_finalize(self):
        """StreamingShuffle.finalize blocks until every map task's buffers
        arrive; a hung map must be timed out and retried so the gate opens.
        (With no timeout this configuration would deadlock the job.)"""
        plan = FaultPlan(
            rules=(
                FaultRule(fault="hang", kind="map", index=1, hang_s=10.0, times=1),
            )
        )
        policy = RetryPolicy(max_retries=2, task_timeout_s=0.2)
        result = _run("threads", plan, policy)
        assert dict(result.output_pairs()) == EXPECTED
        assert _framework(result, "task_timeouts") == 1


class TestSpeculation:
    def test_straggler_gets_a_backup_and_the_answer_is_unchanged(self):
        plan = FaultPlan(
            rules=(
                FaultRule(fault="slow", kind="map", index=2, slow_s=0.5, times=1),
            )
        )
        policy = RetryPolicy(
            speculation=True,
            speculation_factor=1.5,
            speculation_min_completed=2,
            speculation_poll_s=0.01,
        )
        result = _run("threads", plan, policy)
        assert dict(result.output_pairs()) == EXPECTED
        assert not result.partial
        assert _framework(result, "speculative_attempts") == 1
        # The clean backup won; no retries were spent on the straggler.
        assert _framework(result, "task_retries") == 0


class TestDegradedMode:
    def test_poisoned_reduce_degrades_to_a_partial_result(self):
        plan = FaultPlan(
            rules=(FaultRule(fault="poison", kind="reduce", index=0),)
        )
        policy = RetryPolicy(max_retries=1, on_lost="degrade")
        result = _run("serial", plan, policy)
        assert result.partial
        assert result.lost_partitions == ["reduce-0"]
        assert _framework(result, "tasks_lost") == 1
        # Exhausting the budget still costs its retries first.
        assert _framework(result, "task_retries") == 1
        # The surviving partition's counts are exact, not approximate.
        survived = dict(result.output_pairs())
        assert survived
        assert all(EXPECTED[word] == n for word, n in survived.items())

    def test_poisoned_map_degrades_without_wedging_the_shuffle(self):
        """A lost map commits empty buffers so the streaming shuffle's
        completeness gate still opens; the answer undercounts, only ever in
        the lost split's direction."""
        plan = FaultPlan(rules=(FaultRule(fault="poison", kind="map", index=0),))
        policy = RetryPolicy(max_retries=1, on_lost="degrade")
        result = _run("serial", plan, policy)
        assert result.partial
        assert result.lost_partitions == ["map-0"]
        survived = dict(result.output_pairs())
        assert all(n <= EXPECTED[word] for word, n in survived.items())
        # Split 0 is "a b a": those two words lost counts, the others kept
        # theirs.
        assert survived["c"] == EXPECTED["c"]
        assert survived["d"] == EXPECTED["d"]
        assert survived["a"] == EXPECTED["a"] - 2
        assert survived["b"] == EXPECTED["b"] - 1

    def test_default_on_lost_fail_raises_with_every_attempt(self):
        plan = FaultPlan(
            rules=(FaultRule(fault="poison", kind="reduce", index=0),)
        )
        with pytest.raises(JobFailedError) as info:
            _run("serial", plan, RetryPolicy(max_retries=2))
        assert len(info.value.failures) == 3  # 1 try + 2 retries
        assert all(
            isinstance(f.cause, InjectedFault) for f in info.value.failures
        )

    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    def test_degraded_result_is_identical_across_executors(self, executor):
        plan = FaultPlan(rules=(FaultRule(fault="poison", kind="map", index=0),))
        policy = RetryPolicy(max_retries=0, on_lost="degrade")
        baseline = _run("serial", plan, policy)
        result = _run(executor, plan, policy)
        assert result.partial and result.lost_partitions == ["map-0"]
        assert result.outputs == baseline.outputs


class TestPolicyAndPlanResolution:
    def test_plan_embedded_policy_is_adopted(self):
        plan = FaultPlan(
            rules=(FaultRule(fault="crash", kind="map", times=1),),
            policy=RetryPolicy(max_retries=2),
        )
        # No explicit retry_policy: the plan's own budget rescues its own
        # faults (one crash per map task).
        result = _run("serial", plan)
        assert dict(result.output_pairs()) == EXPECTED
        assert _framework(result, "task_retries") == 3

    def test_explicit_policy_overrides_the_plan_policy(self):
        plan = FaultPlan(
            rules=(FaultRule(fault="crash", kind="map", times=1),),
            policy=RetryPolicy(max_retries=2),
        )
        with pytest.raises(JobFailedError):
            _run("serial", plan, RetryPolicy(max_retries=0))

    def test_plan_replays_identically_on_every_run(self):
        plan = FaultPlan(
            seed=13,
            rules=(
                FaultRule(
                    fault="crash", kind="map", probability=0.5, times=None
                ),
            ),
        )
        policy = RetryPolicy(max_retries=4)
        first = _run("serial", plan, policy)
        second = _run("serial", plan, policy)
        assert first.outputs == second.outputs
        assert _framework(first, "task_retries") == _framework(
            second, "task_retries"
        )

    def test_injector_instance_accumulates_across_runs(self):
        """Passing an injector (not a plan) reuses its budgets and event
        log: the second run sees the crash-once rule already spent."""
        injector = FaultInjector(
            FaultPlan(rules=(FaultRule(fault="crash", kind="map", index=0),))
        )
        policy = RetryPolicy(max_retries=1)
        first = _run("serial", injector, policy)
        second = _run("serial", injector, policy)
        assert _framework(first, "task_retries") == 1
        assert _framework(second, "task_retries") == 0
        assert [(e.task_id, e.attempt) for e in injector.events] == [("map-0", 1)]

    def test_invalid_retry_policy_is_a_config_error(self):
        with pytest.raises(JobConfigError, match="max_retries"):
            Runner("serial", retry_policy=RetryPolicy(max_retries=-1))
