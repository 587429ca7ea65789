"""Tests for the straggler / speculative-execution simulation model."""

import pytest

from repro.mapreduce import Job, JobConf, Mapper, Reducer, Runner
from repro.mapreduce.cluster import ClusterSpec
from repro.mapreduce.simulation import StragglerSpec, simulate_job


class TokenMapper(Mapper):
    def map(self, key, value, ctx):
        for word in value.split():
            ctx.emit(word, 1)


class SumReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


@pytest.fixture(scope="module")
def measured():
    job = Job(
        name="wc",
        mapper=TokenMapper,
        reducer=SumReducer,
        conf=JobConf(num_reducers=4, num_map_tasks=8),
    )
    records = [(None, "alpha beta gamma delta " * 10) for _ in range(400)]
    return Runner().run(job, records=records)


CLUSTER = ClusterSpec(num_nodes=2, speed_factor=1000.0)


class TestSpecValidation:
    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            StragglerSpec(probability=1.5)
        with pytest.raises(ValueError):
            StragglerSpec(probability=-0.1)

    def test_slowdown_bound(self):
        with pytest.raises(ValueError):
            StragglerSpec(slowdown=0.5)

    def test_trigger_bound(self):
        with pytest.raises(ValueError):
            StragglerSpec(trigger_factor=0.0)


class TestPerturb:
    def test_no_stragglers_identity(self):
        spec = StragglerSpec(probability=0.0)
        assert spec.perturb([1.0, 2.0], 0.1) == [1.0, 2.0]

    def test_all_straggle_without_speculation(self):
        spec = StragglerSpec(probability=1.0, slowdown=3.0, speculative=False)
        assert spec.perturb([1.0, 2.0], 0.0) == [3.0, 6.0]

    def test_speculation_caps_slowdown(self):
        spec = StragglerSpec(
            probability=1.0, slowdown=100.0, speculative=True, trigger_factor=1.0
        )
        out = spec.perturb([1.0, 1.0, 1.0], launch_s=0.5)
        # backup done at median(1.0) * 1.0 + nominal 1.0 + launch 0.5 = 2.5
        assert out == [2.5, 2.5, 2.5]

    def test_speculation_never_worse_than_plain_slowdown(self):
        slow = StragglerSpec(probability=1.0, slowdown=4.0, speculative=False)
        spec = StragglerSpec(probability=1.0, slowdown=4.0, speculative=True)
        durations = [0.5, 1.0, 2.0, 4.0]
        for a, b in zip(spec.perturb(durations, 0.1), slow.perturb(durations, 0.1)):
            assert a <= b + 1e-12

    def test_deterministic_by_seed(self):
        spec = StragglerSpec(probability=0.5, seed=3)
        durations = [1.0] * 50
        assert spec.perturb(durations, 0.1) == spec.perturb(durations, 0.1)
        other = StragglerSpec(probability=0.5, seed=4)
        assert spec.perturb(durations, 0.1) != other.perturb(durations, 0.1)

    def test_empty(self):
        assert StragglerSpec().perturb([], 0.1) == []


class TestSimulation:
    def test_stragglers_never_speed_up(self, measured):
        base = simulate_job(measured, CLUSTER)
        perturbed = simulate_job(
            measured, CLUSTER, StragglerSpec(probability=0.3, slowdown=8.0, seed=1)
        )
        assert perturbed.total_s >= base.total_s - 1e-9

    def test_speculation_recovers_time(self, measured):
        no_spec = simulate_job(
            measured,
            CLUSTER,
            StragglerSpec(probability=0.5, slowdown=20.0, speculative=False, seed=2),
        )
        with_spec = simulate_job(
            measured,
            CLUSTER,
            StragglerSpec(probability=0.5, slowdown=20.0, speculative=True, seed=2),
        )
        assert with_spec.total_s < no_spec.total_s

    def test_zero_probability_matches_baseline(self, measured):
        base = simulate_job(measured, CLUSTER)
        same = simulate_job(
            measured, CLUSTER, StragglerSpec(probability=0.0)
        )
        assert same.total_s == pytest.approx(base.total_s)
