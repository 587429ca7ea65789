"""Engine-level tracing integration: real pipelines under an enabled tracer."""

import numpy as np
import pytest

from repro.core.mr_skyline import run_mr_skyline
from repro.mapreduce import (
    Job,
    JobConf,
    JobFailedError,
    Mapper,
    Reducer,
    RetryPolicy,
    Runner,
)
from repro.observability import enable_tracing
from repro.observability.metrics import get_metrics
from repro.observability.report import summarize_spans
from repro.observability.tracing import Tracer, set_tracer


def _points(n=1000, d=4, seed=11):
    return np.random.default_rng(seed).random((n, d))


class TestTracedPipeline:
    def test_mr_angle_emits_full_span_tree(self):
        tracer = set_tracer(Tracer(keep_spans=True))
        result = run_mr_skyline(_points(), method="angle", num_workers=4)
        spans = tracer.finished

        kinds = {s.kind for s in spans}
        assert {"pipeline", "job", "phase", "task", "partition"} <= kinds
        phases = {s.attrs.get("phase") for s in spans if s.kind == "phase"}
        assert phases == {"map", "shuffle", "reduce"}

        # One job span per chained MapReduce job, each with phase children.
        job_spans = [s for s in spans if s.kind == "job"]
        assert len(job_spans) == len(result.chain.results)
        by_id = {s.span_id: s for s in spans}
        for job in job_spans:
            children = [s for s in spans if s.parent_id == job.span_id]
            assert {s.attrs.get("phase") for s in children} == {
                "map",
                "shuffle",
                "reduce",
            }
            # Per-job: the phases partition the job wall (sum never exceeds
            # it; gaps are framework glue between phases).
            phase_sum = sum(s.duration_s for s in children)
            assert phase_sum <= job.duration_s
            assert job.duration_s - phase_sum < 0.05

        # Every task span nests under a phase of the right kind.
        for task in (s for s in spans if s.kind == "task"):
            parent = by_id[task.parent_id]
            assert parent.kind == "phase"
            assert task.name.startswith(parent.attrs["phase"].split("-")[0][:3])

        # The pipeline root carries the skew gauges and result shape.
        root = next(s for s in spans if s.kind == "pipeline")
        assert root.attrs["scheme"] == "angle"
        assert root.attrs["n"] == 1000
        assert root.attrs["d"] == 4
        assert root.attrs["global_skyline"] == result.global_indices.size
        assert root.attrs["skew_max_min_ratio"] >= 1.0

    def test_phase_durations_sum_consistently_with_job_wall(self):
        tracer = set_tracer(Tracer(keep_spans=True))
        run_mr_skyline(_points(), method="angle", num_workers=4)
        summary = summarize_spans(tracer.finished)
        assert summary["jobs"] >= 2
        assert summary["tasks"] > 0
        assert summary["errors"] == 0
        job_wall = sum(s.duration_s for s in tracer.finished if s.kind == "job")
        phases_sum = sum(summary["phase_s"].values())
        assert phases_sum <= job_wall
        assert abs(job_wall - phases_sum) < 0.05

    def test_skew_gauges_and_dominance_histogram_recorded(self):
        set_tracer(Tracer(keep_spans=True))
        # Pinned to the serial executor: the per-task dominance histogram is
        # recorded inside reducer workers, so a pool executor's driver-side
        # registry never sees it (only the measurement path does).
        run_mr_skyline(_points(), method="angle", num_workers=4, executor="serial")
        snap = get_metrics().snapshot()
        assert snap["gauges"]["partition.records_max"] > 0
        assert snap["gauges"]["partition.max_min_ratio"] >= 1.0
        hist = snap["histograms"]["skyline.dominance_tests_per_task"]
        assert hist["count"] > 0
        assert snap["counters"]["skyline.local_dominance_tests"] > 0

    def test_trace_file_written(self, tmp_path):
        path = tmp_path / "run.jsonl"
        enable_tracing(str(path))
        run_mr_skyline(_points(200, 3), method="grid", num_workers=2)
        from repro.observability import disable_tracing, load_trace

        disable_tracing(write_metrics=True)
        spans, snapshot = load_trace(str(path))
        assert any(s.kind == "job" for s in spans)
        assert snapshot is not None
        assert "partition.max_min_ratio" in snapshot["gauges"]

    def test_disabled_tracer_produces_nothing(self):
        # The default (disabled) tracer must stay silent through a full run.
        result = run_mr_skyline(_points(200, 3), method="angle", num_workers=2)
        assert result.global_indices.size > 0


class _CrashMapper(Mapper):
    def map(self, key, value, ctx):
        if value == "x":
            raise RuntimeError("poisoned record")
        ctx.emit(value, 1)


class _CountReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


def _crash_job(maps=3):
    return Job(
        name="crashy",
        mapper=_CrashMapper,
        reducer=_CountReducer,
        conf=JobConf(num_reducers=1, num_map_tasks=maps),
    )


RECORDS = [(None, "a"), (None, "b"), (None, "x")]


class TestFailedJobTraces:
    def test_serial_failure_leaves_partial_trace(self):
        tracer = set_tracer(Tracer(keep_spans=True))
        with pytest.raises(JobFailedError) as info:
            Runner("serial").run(_crash_job(), records=RECORDS)
        spans = tracer.finished
        # The healthy tasks finished with ok status before the poisoned one.
        ok_tasks = [s for s in spans if s.kind == "task" and s.status == "ok"]
        err_tasks = [s for s in spans if s.kind == "task" and s.status == "error"]
        assert len(ok_tasks) == 2
        assert len(err_tasks) == 1
        # Enclosing phase/job spans closed as errors (partial, not missing).
        assert [s.status for s in spans if s.kind == "phase"] == ["error"]
        assert [s.status for s in spans if s.kind == "job"] == ["error"]
        # Completed-task timings survive on the exception itself.
        assert len(info.value.completed_stats) == 2
        assert all(st.duration_s >= 0 for st in info.value.completed_stats)

    def test_serial_retries_appear_as_attempt_spans(self):
        tracer = set_tracer(Tracer(keep_spans=True))
        with pytest.raises(JobFailedError):
            runner = Runner("serial", retry_policy=RetryPolicy(max_retries=2))
            runner.run(_crash_job(), records=RECORDS)
        attempts = [
            s.attrs["attempt"]
            for s in tracer.finished
            if s.kind == "task" and s.status == "error"
        ]
        assert attempts == [1, 2, 3]
        assert get_metrics().counter("task.map.failures").value == 3

    def test_multiprocess_failure_keeps_completed_task_spans(self):
        tracer = set_tracer(Tracer(keep_spans=True))
        with pytest.raises(JobFailedError) as info:
            Runner("processes", num_workers=2).run(_crash_job(), records=RECORDS)
        spans = tracer.finished
        task_spans = [s for s in spans if s.kind == "task"]
        # Healthy map tasks reported back as synthetic spans; the failed
        # task left an explicit error span.
        assert sum(1 for s in task_spans if s.status == "ok") == 2
        failed = [s for s in task_spans if s.status == "error"]
        assert len(failed) == 1
        assert "poisoned record" in failed[0].attrs["error"]
        assert all(s.attrs.get("synthetic") for s in task_spans)
        # Stats of completed tasks ride on the exception for post-mortems.
        assert len(info.value.completed_stats) == 2

    def test_multiprocess_success_task_spans_match_serial_counts(self):
        tracer = set_tracer(Tracer(keep_spans=True))
        records = [(None, "a"), (None, "b"), (None, "c")]
        Runner("processes", num_workers=2).run(_crash_job(), records=records)
        task_spans = [s for s in tracer.finished if s.kind == "task"]
        assert len(task_spans) == 4  # 3 map + 1 reduce
        assert all(s.attrs.get("synthetic") for s in task_spans)
        assert all(s.duration_ns >= 0 for s in task_spans)


class TestBenchTraceSummary:
    def test_run_point_attaches_summary(self):
        set_tracer(Tracer())
        from repro.bench.harness import run_point

        rec = run_point("angle", 500, 3)
        assert rec.trace_summary is not None
        assert rec.trace_summary["jobs"] >= 2
        assert rec.trace_summary["phase_s"]["reduce"] > 0

    def test_run_point_without_tracing(self):
        from repro.bench.harness import run_point

        rec = run_point("angle", 500, 3)
        assert rec.trace_summary is None
