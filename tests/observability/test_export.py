"""Exposition-format parity: sanitization, ordering, deltas, JSON safety."""

import json
import math

import pytest

from repro.observability.export import (
    json_snapshot,
    render_prometheus,
    sanitize_metric_name,
    snapshot_delta,
)
from repro.observability.metrics import MetricsRegistry


def _loaded_registry():
    reg = MetricsRegistry()
    reg.counter("serve.requests").inc(7)
    reg.counter("task.map.retries").inc(2)
    reg.gauge("partition.skew.qws.max_min_ratio").set(3.5)
    hist = reg.histogram("serve.latency_s", (0.01, 0.1, 1.0))
    for value in (0.005, 0.05, 0.5, 5.0):
        hist.observe(value)
    return reg


class TestSanitize:
    def test_dots_become_underscores(self):
        assert sanitize_metric_name("serve.cache.hits") == "serve_cache_hits"

    def test_prefix_applied_before_sanitizing(self):
        name = sanitize_metric_name("serve.latency_s", prefix="repro_")
        assert name == "repro_serve_latency_s"

    def test_illegal_characters_collapse(self):
        assert sanitize_metric_name("a b!!c--d") == "a_b_c_d"

    def test_leading_digit_escaped(self):
        assert sanitize_metric_name("5xx.count")[0] == "_"

    def test_empty_name_falls_back(self):
        assert sanitize_metric_name("...") == "metric"

    def test_registry_names_stay_collision_free(self):
        # Every metric name the engine/serving layers emit must stay
        # distinct after sanitization — the exposition would silently
        # merge series otherwise.
        names = [
            "serve.requests", "serve.cache.hits", "serve.cache.misses",
            "serve.latency_s", "task.map.retries", "task.reduce.retries",
            "partition.max_min_ratio", "partition.skew.qws.max_min_ratio",
            "framework.map_records", "executor.suspect_workers",
        ]
        sanitized = [sanitize_metric_name(n) for n in names]
        assert len(set(sanitized)) == len(names)


class TestPrometheus:
    def test_counter_gauge_histogram_series(self):
        text = render_prometheus(_loaded_registry())
        assert "# TYPE repro_serve_requests_total counter" in text
        assert "repro_serve_requests_total 7" in text
        assert "repro_partition_skew_qws_max_min_ratio 3.5" in text
        assert '# TYPE repro_serve_latency_s histogram' in text

    def test_histogram_buckets_cumulative_and_terminated(self):
        text = render_prometheus(_loaded_registry())
        lines = [line for line in text.splitlines() if "_bucket" in line]
        counts = [int(line.rsplit(" ", 1)[1]) for line in lines]
        assert counts == sorted(counts), "bucket counts must be cumulative"
        assert lines[-1].startswith('repro_serve_latency_s_bucket{le="+Inf"}')
        assert counts[-1] == 4  # +Inf bucket equals total count
        assert "repro_serve_latency_s_sum" in text
        assert "repro_serve_latency_s_count 4" in text

    def test_output_is_deterministic(self):
        reg = _loaded_registry()
        assert render_prometheus(reg) == render_prometheus(reg)

    def test_output_sorted_by_name_within_type(self):
        reg = MetricsRegistry()
        reg.counter("zz").inc()
        reg.counter("aa").inc()
        text = render_prometheus(reg)
        assert text.index("repro_aa_total") < text.index("repro_zz_total")

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""


class TestJsonSnapshot:
    def test_round_trips_strict_json(self):
        snap = json_snapshot(_loaded_registry())
        text = json.dumps(snap, allow_nan=False)  # would raise on Infinity
        assert json.loads(text) == snap

    def test_empty_histogram_is_json_safe(self):
        reg = MetricsRegistry()
        reg.histogram("h", (1.0,))
        snap = json_snapshot(reg)["histograms"]["h"]
        assert snap["min"] == snap["max"] == 0.0
        assert snap["sum"] == 0.0 and snap["count"] == 0

    def test_infinite_observation_is_json_safe(self):
        reg = MetricsRegistry()
        reg.histogram("h", (1.0,)).observe(math.inf)
        snap = json_snapshot(reg)["histograms"]["h"]
        for key in ("sum", "mean", "min", "max", "p50", "p90", "p99"):
            assert math.isfinite(snap[key]), key

    def test_histogram_sum_is_raw_total(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h", (1.0, 10.0))
        hist.observe(0.5)
        hist.observe(2.5)
        snap = reg.snapshot()["histograms"]["h"]
        assert snap["sum"] == pytest.approx(3.0)
        assert snap["mean"] == pytest.approx(1.5)


class TestDelta:
    def test_first_delta_equals_totals(self):
        reg = _loaded_registry()
        delta = snapshot_delta(None, reg.snapshot())
        assert delta["counters"]["serve.requests"] == 7
        assert delta["histograms"]["serve.latency_s"]["count"] == 4

    def test_counter_monotonicity_across_polls(self):
        reg = _loaded_registry()
        baseline = reg.snapshot()
        reg.counter("serve.requests").inc(3)
        reg.histogram("serve.latency_s").observe(0.02)
        delta = snapshot_delta(baseline, reg.snapshot())
        assert delta["counters"]["serve.requests"] == 3
        assert delta["counters"]["task.map.retries"] == 0
        assert delta["histograms"]["serve.latency_s"]["count"] == 1
        assert delta["histograms"]["serve.latency_s"]["sum"] == pytest.approx(0.02)

    def test_reset_clamps_to_zero_not_negative(self):
        reg = _loaded_registry()
        baseline = reg.snapshot()
        reg.reset()
        reg.counter("serve.requests").inc(1)
        delta = snapshot_delta(baseline, reg.snapshot())
        assert delta["counters"]["serve.requests"] == 0  # shrank: clamped

    def test_gauges_pass_through_as_values(self):
        reg = _loaded_registry()
        prev = reg.snapshot()
        reg.gauge("partition.skew.qws.max_min_ratio").set(9.0)
        delta = snapshot_delta(prev, reg.snapshot())
        assert delta["gauges"]["partition.skew.qws.max_min_ratio"] == 9.0
