"""``repro top``: pure frame rendering plus the live ``--once`` path."""

import io
from contextlib import contextmanager

import numpy as np

from repro.cli import main
from repro.serving.queries import QuerySpec
from repro.serving.service import SkylineService
from repro.serving.top import Sample, render_frame, run_top

from tests.serving.harness import tcp_server


def _sample(polled_at=100.0, requests=40, shed=2):
    return Sample(
        stats={
            "uptime_s": 12.5,
            "peak_rss_mb": 38.96,
            "datasets": {"qws": {"size": 300, "generation": 3}},
            "cache": {
                "hits": 9, "misses": 3, "entries": 3,
                "evictions": 1, "capacity": 128,
            },
            "queued": 1,
            "inflight_computes": 2,
            "counters": {
                "serve.requests": requests,
                "serve.computes": 12,
                "serve.coalesced": 4,
                "serve.shed": shed,
                "serve.degraded": 1,
                "serve.mutations": 5,
            },
            "gauges": {
                "partition.skew.qws.max_min_ratio": 2.5,
                "partition.skew.qws.imbalance": 1.2,
            },
            "latency": {
                "count": 12, "sum": 0.6, "mean": 0.05, "min": 0.001,
                "max": 0.2, "p50": 0.04, "p90": 0.1, "p99": 0.18,
                "overflow": 0,
            },
            "events": {"serve.shed": 2},
        },
        health={"status": "degraded", "slo_state": "ticket"},
        slo={
            "state": "ticket",
            "objectives": [{
                "name": "availability", "target": 0.999,
                "state": "ticket",
                "windows": {
                    "5m": {"total": 40, "good": 39, "error_rate": 0.025,
                           "burn_rate": 25.0},
                    "1h": {"total": 40, "good": 39, "error_rate": 0.025,
                           "burn_rate": 25.0},
                    "6h": {"total": 40, "good": 39, "error_rate": 0.025,
                           "burn_rate": 25.0},
                    "3d": {"total": 40, "good": 39, "error_rate": 0.025,
                           "burn_rate": 25.0},
                },
            }],
        },
        events=[
            {"seq": 7, "ts": 99.0, "kind": "serve.shed",
             "dataset": "qws", "reason": "queue_full"},
        ],
        polled_at=polled_at,
    )


class TestRenderFrame:
    def test_single_frame_shows_every_section(self):
        frame = render_frame(_sample(), target="127.0.0.1:9999")
        assert "[WARN]" in frame  # degraded health tag
        assert "peak rss 39.0 MB" in frame
        assert "requests 40" in frame
        assert "shed 2" in frame
        assert "cache 75.0% hit" in frame
        assert "p50 40.0ms" in frame and "p99 180.0ms" in frame
        assert "availability" in frame and "[TICKET]" in frame
        assert "25.00x" in frame
        assert "qws" in frame and "2.50" in frame  # skew column
        assert "#7 serve.shed" in frame and "reason=queue_full" in frame
        assert "\x1b" not in frame, "render_frame must stay escape-free"

    def test_rates_computed_from_previous_sample(self):
        previous = _sample(polled_at=100.0, requests=40)
        current = _sample(polled_at=102.0, requests=50)
        frame = render_frame(current, previous)
        assert "(5.0/s)" in frame  # 10 requests over 2s

    def test_counter_reset_clamps_rate_to_zero(self):
        previous = _sample(polled_at=100.0, requests=40)
        current = _sample(polled_at=102.0, requests=3)  # server restarted
        frame = render_frame(current, previous)
        assert "(0.0/s)" in frame

    def test_empty_service_renders(self):
        sample = Sample(
            stats={"counters": {}, "gauges": {}, "cache": {},
                   "datasets": {}, "latency": {}},
            health={"status": "healthy"},
            slo={"state": "ok", "objectives": []},
            events=[],
            polled_at=1.0,
        )
        frame = render_frame(sample)
        assert "(none registered)" in frame
        assert "latency (no samples yet)" in frame
        assert "events: (none)" in frame


@contextmanager
def _live_server():
    service = SkylineService()
    service.register(
        "qws", np.random.default_rng(1).random((80, 3)) + 0.01
    )
    service.query(QuerySpec(dataset="qws"))  # seed latency + counters
    with tcp_server(service) as address:
        yield address


class TestLiveTop:
    def test_run_top_once_against_tcp_server(self):
        with _live_server() as (host, port):
            out = io.StringIO()
            rc = run_top(host, port, once=True, out=out)
        assert rc == 0
        frame = out.getvalue()
        assert "repro top" in frame and "[OK]" in frame
        assert "peak rss " in frame and " MB" in frame
        assert "qws" in frame

    def test_cli_top_once(self, capsys):
        with _live_server() as (host, port):
            rc = main(["top", "--tcp", f"{host}:{port}", "--once"])
        assert rc == 0
        frame = capsys.readouterr().out
        assert "datasets:" in frame and "qws" in frame
        assert "slo:" in frame

    def test_cli_top_count_two_frames(self, capsys):
        with _live_server() as (host, port):
            rc = main([
                "top", "--tcp", f"{host}:{port}",
                "--count", "2", "--interval", "0.05",
            ])
        assert rc == 0
        frames = capsys.readouterr().out
        assert frames.count("repro top") == 2

    def test_connection_refused_exits_nonzero(self, capsys):
        rc = run_top("127.0.0.1", 1, once=True, out=io.StringIO())
        assert rc == 1
        assert "cannot connect" in capsys.readouterr().err

    def test_cli_rejects_bad_target(self, capsys):
        assert main(["top", "--tcp", "no-port", "--once"]) == 2
