"""Read-only telemetry verbs: stats, health, slo, events, metrics."""

import io
import json

import numpy as np

from repro.observability.events import get_events
from repro.serving.protocol import handle_request
from repro.serving.server import serve_lines
from repro.serving.service import SkylineService


def _service(n=60):
    service = SkylineService()
    service.register("qws", np.random.default_rng(0).random((n, 3)) + 0.01)
    return service


def _query(service, dataset="qws"):
    return handle_request(service, {"op": "query", "dataset": dataset})


class TestStats:
    def test_shape_after_traffic(self):
        service = _service()
        _query(service)
        _query(service)  # second answer comes from cache
        response = handle_request(service, {"op": "stats"})
        assert response["ok"] is True
        assert response["datasets"]["qws"]["generation"] == 1
        assert response["counters"]["serve.requests"] == 2
        assert response["counters"]["serve.cache.hits"] == 1
        assert response["latency"]["count"] == 2
        assert response["uptime_s"] >= 0.0
        assert "store.generation" in response["events"]

    def test_peak_rss_is_the_process_high_water_mark(self):
        def vmhwm_kib():
            with open("/proc/self/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
            raise AssertionError("no VmHWM line")

        service = _service()
        before = vmhwm_kib()
        peak_mb = handle_request(service, {"op": "stats"})["peak_rss_mb"]
        after = vmhwm_kib()
        # Both read the process's RSS high-water mark, which only rises.
        # The kernel keeps RSS in per-CPU counters that getrusage reads
        # without summing, so ru_maxrss may trail VmHWM by a few hundred
        # KiB; 1 MB covers that and nothing else.
        assert before / 1024 - 1.0 <= peak_mb <= after / 1024 + 0.001

    def test_gauges_include_partition_skew(self):
        service = _service()
        gauges = handle_request(service, {"op": "stats"})["gauges"]
        assert any(k.startswith("partition.skew.qws.") for k in gauges)

    def test_stats_is_json_safe(self):
        service = SkylineService()  # no traffic: empty histogram path
        response = handle_request(service, {"op": "stats"})
        json.dumps(response, allow_nan=False)


class TestHealthSlo:
    def test_idle_service_is_healthy(self):
        response = handle_request(_service(), {"op": "health"})
        assert response["status"] == "healthy"
        assert response["slo_state"] == "ok"
        assert response["datasets"] == 1

    def test_slo_report_lists_default_objectives(self):
        service = _service()
        _query(service)
        response = handle_request(service, {"op": "slo"})
        names = [o["name"] for o in response["objectives"]]
        assert names == ["availability", "latency"]
        assert response["state"] == "ok"
        windows = response["objectives"][0]["windows"]
        assert set(windows) == {"5m", "1h", "6h", "3d"}
        assert windows["5m"]["total"] == 1

    def test_sustained_errors_flip_health(self):
        service = _service()
        for _ in range(20):
            service.slo.record(0.01, ok=False)
        assert handle_request(service, {"op": "slo"})["state"] == "page"
        assert handle_request(service, {"op": "health"})["status"] == "unhealthy"


class TestEventsVerb:
    def test_tail_and_filters(self):
        service = _service()  # register emits store.generation
        response = handle_request(service, {"op": "events"})
        assert response["ok"] is True
        assert response["count"] == len(response["events"]) >= 1
        kinds = {e["kind"] for e in response["events"]}
        assert "store.generation" in kinds
        filtered = handle_request(
            service, {"op": "events", "kinds": ["store.*"], "n": 5}
        )
        assert all(e["kind"].startswith("store.") for e in filtered["events"])

    def test_since_seq_resumes(self):
        service = _service()
        cursor = handle_request(service, {"op": "events"})["events"][-1]["seq"]
        get_events().emit("serve.shed", dataset="qws", reason="test")
        fresh = handle_request(service, {"op": "events", "since_seq": cursor})
        assert [e["kind"] for e in fresh["events"]] == ["serve.shed"]

    def test_bad_kinds_rejected(self):
        response = handle_request(_service(), {"op": "events", "kinds": "serve.*"})
        assert response["ok"] is False
        assert "glob" in response["error"]


class TestMetricsVerb:
    def test_json_format(self):
        service = _service()
        _query(service)
        response = handle_request(service, {"op": "metrics"})
        assert response["format"] == "json"
        assert response["metrics"]["counters"]["serve.requests"] == 1

    def test_prometheus_format(self):
        service = _service()
        _query(service)
        response = handle_request(service, {"op": "metrics", "format": "prometheus"})
        assert response["content_type"].startswith("text/plain")
        assert "repro_serve_requests_total 1" in response["body"]
        assert 'repro_serve_latency_s_bucket{le="+Inf"}' in response["body"]

    def test_unknown_format_rejected(self):
        response = handle_request(_service(), {"op": "metrics", "format": "xml"})
        assert response["ok"] is False


class TestOverLines:
    def test_all_verbs_round_trip_as_json_lines(self):
        service = _service()
        requests = [
            {"op": "query", "dataset": "qws"},
            {"op": "stats"},
            {"op": "health"},
            {"op": "slo"},
            {"op": "events", "n": 10},
            {"op": "metrics", "format": "prometheus"},
            {"op": "shutdown"},
        ]
        out = io.StringIO()
        ended = serve_lines(
            service, (json.dumps(r) for r in requests), out
        )
        assert ended is True
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert all(r["ok"] for r in responses)
        stats, health, slo, events, metrics = responses[1:6]
        assert stats["counters"]["serve.requests"] == 1
        assert health["status"] == "healthy"
        assert slo["state"] == "ok"
        assert events["count"] >= 1
        assert "repro_serve_requests_total" in metrics["body"]
