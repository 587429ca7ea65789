"""The open-loop load generator: determinism, validation, live runs.

``run_scenario`` (spawn → load → SIGKILL → recover → parity) is already
driven end-to-end by ``repro loadtest`` and the bench's v4 ``loadtest``
section; the tests here pin the generator's contracts — deterministic
per-index requests, honest percentiles, validated knobs — plus one small
live ``run_loadtest`` against an in-process server.
"""

import threading
import time

import pytest

from repro.bench.loadtest import (
    DEFAULT_MIX,
    LoadTestConfig,
    _build_request,
    percentile_ms,
    run_loadtest,
    spawn_tcp_server,
)
from repro.serving.server import make_tcp_server
from repro.serving.service import SkylineService

from tests.serving.harness import wait_for_port


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"qps": 0},
            {"duration_s": 0},
            {"workers": 0},
            {"mutation_fraction": 1.0},
            {"mutation_fraction": -0.1},
            {"n_points": 0},
            {"dims": 1},
            {"mix": {"skyline": 0.5, "nope": 0.5}},
            {"mix": {}},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LoadTestConfig(**kwargs).validate()

    def test_defaults_validate(self):
        LoadTestConfig().validate()

    def test_points_are_seed_deterministic(self):
        a = LoadTestConfig(seed=3).points()
        b = LoadTestConfig(seed=3).points()
        assert (a == b).all()
        assert not (a == LoadTestConfig(seed=4).points()).all()


class TestBuildRequest:
    def test_per_index_determinism(self):
        config = LoadTestConfig(seed=7)
        for i in range(50):
            assert _build_request(i, config) == _build_request(i, config)

    def test_mix_covers_every_kind_and_mutations(self):
        config = LoadTestConfig(seed=0, mutation_fraction=0.2)
        ops = [_build_request(i, config) for i in range(400)]
        kinds = {r["kind"] for r in ops if r["op"] == "query"}
        assert kinds == set(DEFAULT_MIX), kinds
        assert any(r["op"] == "insert" for r in ops)
        assert any(r["op"] == "remove" for r in ops)

    def test_requests_are_well_formed(self):
        config = LoadTestConfig(seed=1, dims=4)
        for i in range(200):
            request = _build_request(i, config)
            if request["op"] == "insert":
                assert len(request["point"]) == 4
            elif request["op"] == "remove":
                assert 0 <= request["id"] < config.n_points
            elif request["kind"] == "skyband":
                assert request["k"] >= 1
            elif request["kind"] == "constrained":
                assert all(
                    lo < hi
                    for lo, hi in zip(request["lower"], request["upper"])
                )
            elif request["kind"] == "subspace":
                dims = request["dims"]
                assert dims == sorted(set(dims)) and len(dims) >= 2

    def test_zero_mutation_fraction_is_all_queries(self):
        config = LoadTestConfig(seed=2, mutation_fraction=0.0)
        assert all(
            _build_request(i, config)["op"] == "query" for i in range(200)
        )


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile_ms([], 99) == 0.0

    def test_known_values(self):
        lat = [0.001, 0.002, 0.003, 0.004, 0.005]
        assert percentile_ms(lat, 50) == pytest.approx(3.0)
        assert percentile_ms(lat, 100) == pytest.approx(5.0)


def _fake_server(tmp_path, body):
    """An executable standing in for the interpreter ``spawn_tcp_server`` runs."""
    script = tmp_path / "fake-python"
    script.write_text("#!/bin/sh\n" + body)
    script.chmod(0o755)
    return str(script)


class TestSpawnTcpServer:
    def test_cluster_banner_is_parsed(self, tmp_path):
        python = _fake_server(
            tmp_path,
            'echo "booting" >&2\n'
            'echo "serving 3-shard cluster on 127.0.0.1:45123" >&2\n'
            "exec sleep 30\n",
        )
        proc, host, port = spawn_tcp_server(python=python, startup_timeout_s=10)
        try:
            assert (host, port) == ("127.0.0.1", 45123)
        finally:
            proc.kill()
            proc.wait()

    def test_single_node_banner_is_parsed(self, tmp_path):
        python = _fake_server(
            tmp_path, 'echo "serving on 127.0.0.1:45124" >&2\nexec sleep 30\n'
        )
        proc, host, port = spawn_tcp_server(python=python, startup_timeout_s=10)
        try:
            assert (host, port) == ("127.0.0.1", 45124)
        finally:
            proc.kill()
            proc.wait()

    def test_silent_child_times_out(self, tmp_path):
        python = _fake_server(tmp_path, "exec sleep 30\n")
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="bound address"):
            spawn_tcp_server(python=python, startup_timeout_s=0.5)
        assert time.monotonic() - started < 5.0


class TestLiveRun:
    def test_open_loop_accounting_balances(self):
        config = LoadTestConfig(
            qps=150, duration_s=0.4, workers=4, n_points=120, seed=5
        )
        service = SkylineService()
        service.register("loadtest", points=config.points())
        server = make_tcp_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        wait_for_port(str(host), int(port))
        try:
            stats = run_loadtest(str(host), int(port), config)
        finally:
            server.stop()
            server.server_close()
            thread.join(timeout=10)

        requests = stats["requests"]
        total = int(config.qps * config.duration_s)
        assert requests["sent"] == total
        assert (
            requests["answered"] + requests["shed"] + requests["errors"]
            == total
        )
        assert requests["errors"] == 0, requests
        assert sum(requests["by_kind"].values()) + requests["mutations"] == total
        assert stats["achieved_qps"] > 0
        assert stats["latency_ms"]["p50"] <= stats["latency_ms"]["p99"]
        assert stats["latency_ms"]["p99"] > 0
