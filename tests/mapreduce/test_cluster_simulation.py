"""Tests for the cluster spec and the deterministic timing simulation."""

import pytest

from repro.mapreduce import Job, JobConf, Mapper, Reducer, Runner
from repro.mapreduce.cluster import ClusterSpec
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import JobResult
from repro.mapreduce.shuffle import ShuffleStats
from repro.mapreduce.simulation import (
    SimulatedJob,
    StragglerSpec,
    simulate_job,
    simulate_pipeline,
)
from repro.mapreduce.types import PhaseStats, TaskKind, TaskStats


class TokenMapper(Mapper):
    def map(self, key, value, ctx):
        for word in value.split():
            ctx.emit(word, 1)


class SumReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


@pytest.fixture(scope="module")
def measured_job():
    job = Job(
        name="wc",
        mapper=TokenMapper,
        reducer=SumReducer,
        conf=JobConf(num_reducers=4, num_map_tasks=6),
    )
    records = [(None, f"w{i % 5} w{i % 3}") for i in range(200)]
    return Runner().run(job, records=records)


class TestClusterSpec:
    def test_slots(self):
        c = ClusterSpec(num_nodes=4, map_slots_per_node=2, reduce_slots_per_node=3)
        assert c.map_slots == 8
        assert c.reduce_slots == 12

    def test_aggregate_bandwidth_scales_with_nodes(self):
        small = ClusterSpec(num_nodes=2, network_mbps_per_node=10)
        big = ClusterSpec(num_nodes=8, network_mbps_per_node=10)
        assert big.aggregate_shuffle_bytes_per_s == 4 * small.aggregate_shuffle_bytes_per_s

    def test_scaled_copy(self):
        base = ClusterSpec(num_nodes=4, speed_factor=2.0)
        bigger = base.scaled(num_nodes=16)
        assert bigger.num_nodes == 16
        assert bigger.speed_factor == 2.0
        assert base.num_nodes == 4  # frozen original untouched

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_nodes": 0},
            {"num_nodes": 2, "map_slots_per_node": 0},
            {"num_nodes": 2, "task_launch_s": -1},
            {"num_nodes": 2, "speed_factor": -0.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ClusterSpec(**kwargs)


class TestSimulateJob:
    def test_phase_structure(self, measured_job):
        cluster = ClusterSpec(num_nodes=2, task_launch_s=0.1, job_overhead_s=1.0)
        sim = simulate_job(measured_job, cluster)
        assert isinstance(sim, SimulatedJob)
        assert sim.map_time_s >= cluster.job_overhead_s
        assert sim.reduce_time_s > 0
        assert sim.total_s == pytest.approx(sim.map_time_s + sim.reduce_time_s)

    def test_speed_factor_scales_compute_not_overhead(self, measured_job):
        base = ClusterSpec(num_nodes=2, task_launch_s=0.0, job_overhead_s=0.0)
        slow = base.scaled(speed_factor=10.0)
        fast_sim = simulate_job(measured_job, base)
        slow_sim = simulate_job(measured_job, slow)
        assert slow_sim.map_makespan_s == pytest.approx(
            10 * fast_sim.map_makespan_s, rel=1e-6
        )

    def test_more_nodes_never_slower(self, measured_job):
        base = ClusterSpec(num_nodes=1)
        times = [
            simulate_job(measured_job, base.scaled(num_nodes=n)).total_s
            for n in (1, 2, 4, 8)
        ]
        for a, b in zip(times, times[1:]):
            assert b <= a + 1e-9

    def test_shuffle_time_positive_when_bytes_flow(self, measured_job):
        sim = simulate_job(measured_job, ClusterSpec(num_nodes=2))
        assert measured_job.shuffle_stats.bytes > 0
        assert sim.shuffle_s >= ClusterSpec(num_nodes=2).shuffle_latency_s

    def test_shuffle_time_zero_without_bytes(self, measured_job):
        from dataclasses import replace

        empty = replace(measured_job, shuffle_stats=type(measured_job.shuffle_stats)())
        sim = simulate_job(empty, ClusterSpec(num_nodes=2))
        assert sim.shuffle_s == 0.0

    def test_launch_overhead_counted_per_task(self, measured_job):
        quiet = ClusterSpec(num_nodes=1, task_launch_s=0.0, job_overhead_s=0.0)
        noisy = quiet.scaled(task_launch_s=1.0)
        sim_q = simulate_job(measured_job, quiet)
        sim_n = simulate_job(measured_job, noisy)
        num_map = len(measured_job.map_stats)
        # Single node, two map slots: overheads serialize over slots.
        expected_extra = num_map / quiet.map_slots_per_node * 1.0
        assert sim_n.map_makespan_s - sim_q.map_makespan_s == pytest.approx(
            expected_extra, rel=0.2
        )


class TestPipelineAndSweep:
    def test_pipeline_sums_jobs(self, measured_job):
        cluster = ClusterSpec(num_nodes=2)
        single = simulate_job(measured_job, cluster)
        pipe = simulate_pipeline([measured_job, measured_job], cluster)
        assert pipe.total_s == pytest.approx(2 * single.total_s)
        assert pipe.map_time_s == pytest.approx(2 * single.map_time_s)

    def test_server_sweep_shapes(self, measured_job):
        base = ClusterSpec(num_nodes=1)
        sweep = [
            simulate_pipeline([measured_job], base.scaled(num_nodes=n))
            for n in (1, 2, 4)
        ]
        assert [p.jobs[0].num_nodes for p in sweep] == [1, 2, 4]
        totals = [p.total_s for p in sweep]
        assert totals == sorted(totals, reverse=True)


def _fixed_job() -> JobResult:
    """A job whose task durations are hand-set, not measured."""
    map_s = (0.013, 0.021, 0.008, 0.034, 0.017, 0.011, 0.026)
    reduce_s = (0.042, 0.019, 0.031)
    return JobResult(
        job_name="fixed",
        outputs=[],
        counters=Counters(),
        map_stats=PhaseStats(
            TaskKind.MAP,
            [TaskStats(f"map-{i}", TaskKind.MAP, d) for i, d in enumerate(map_s)],
        ),
        reduce_stats=PhaseStats(
            TaskKind.REDUCE,
            [
                TaskStats(f"reduce-{i}", TaskKind.REDUCE, d, partition=i)
                for i, d in enumerate(reduce_s)
            ],
        ),
        shuffle_stats=ShuffleStats(records=100, bytes=3_456_789, segments=21),
    )


class TestPinnedTotals:
    """Exact replay totals for fixed task stats, clean and with stragglers:
    any change to the cost model shows up here as a changed number."""

    CLUSTER = ClusterSpec(num_nodes=2, speed_factor=100.0)

    def test_job(self):
        sim = simulate_job(_fixed_job(), self.CLUSTER)
        assert sim.map_makespan_s == 6.7
        assert sim.shuffle_s == 0.5432098625
        assert sim.reduce_makespan_s == 5.2
        assert sim.total_s == 17.443209862499998

    def test_pipeline(self):
        pipe = simulate_pipeline([_fixed_job(), _fixed_job()], self.CLUSTER)
        assert pipe.map_time_s == 23.4
        assert pipe.reduce_time_s == 11.486419725000001
        assert pipe.total_s == 34.886419724999996

    @pytest.mark.parametrize(
        "speculative, map_s, reduce_s, total_s",
        [
            (False, 28.4, 34.6, 68.54320986249999),
            (True, 13.0, 10.850000000000001, 29.3932098625),
        ],
    )
    def test_stragglers(self, speculative, map_s, reduce_s, total_s):
        spec = StragglerSpec(
            probability=0.5, slowdown=8.0, speculative=speculative, seed=2
        )
        sim = simulate_job(_fixed_job(), self.CLUSTER, spec)
        assert sim.map_makespan_s == map_s
        assert sim.shuffle_s == 0.5432098625
        assert sim.reduce_makespan_s == reduce_s
        assert sim.total_s == total_s
