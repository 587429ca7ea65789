"""CLI surfaces of the cluster: ``serve --cluster`` and ``coordinator``.

End-to-end over real pipes/sockets:

* ``repro serve --cluster N`` — in-process fleet + coordinator speaking
  the (superset) JSON-lines protocol over stdio;
* ``repro coordinator --shard ...`` — coordinator-only process fanning
  out to externally-owned shard servers;
* ``repro top`` — the cluster frame rendered from a live coordinator's
  ``stats`` (shard table, wire-pruning line).
"""

import json
import socket
import subprocess
import sys

import numpy as np
import pytest

from repro.serving.client import ServingClient
from repro.serving.cluster import ClusterCoordinator, LocalCluster
from repro.serving.cluster.protocol import handle_cluster_request
from repro.serving.queries import QuerySpec, evaluate
from repro.serving.top import collect_sample, render_frame
from tests.serving.harness import spawn_server, subprocess_env, tcp_server


def _points(n=40, d=3, seed=13):
    return np.random.default_rng(seed).random((n, d)) + 0.01


def _expected_ids(rows, spec):
    return list(evaluate(spec, np.arange(rows.shape[0], dtype=np.intp), rows))


class TestServeCluster:
    def test_stdio_session(self):
        rows = _points()
        with spawn_server("--cluster", "2") as client:
            pong = client.ping()
            assert pong["pong"] and pong["shards"] == 2, pong

            loaded = client.register(
                "qws", rows.tolist(), shard_fn="angle"
            )
            assert loaded["ok"] and loaded["shards"] == 2, loaded
            assert loaded["generations"] == [1, 1], loaded

            first = client.query("qws")
            assert first["ok"] and not first["degraded"], first
            assert first["ids"] == _expected_ids(rows, QuerySpec(dataset="qws"))
            assert len(first["generations"]) == 2, first

            warm = client.query("qws")
            assert warm["cache_hit"] and warm["ids"] == first["ids"], warm

            inserted = client.insert("qws", [0.001, 0.001, 0.001])
            assert inserted["id"] == rows.shape[0], inserted
            assert sum(inserted["generations"]) == 3, inserted

            after = client.query("qws")
            assert not after["cache_hit"], after
            assert inserted["id"] in after["ids"], after

            stats = client.stats()
            assert len(stats["shards"]) == 2, stats
            assert all(
                s["state"] == "up" for s in stats["shards"].values()
            ), stats
            held = stats["counters"]["serve.cluster.points_held"]
            sent = stats["counters"]["serve.cluster.candidates_received"]
            assert 0 < sent < held, (sent, held)

            assert client.shutdown()["bye"] is True
        assert client.returncode == 0

    def test_handler_exception_does_not_drop_pipelined_requests(self):
        with LocalCluster(2) as fleet:
            with ClusterCoordinator(fleet.addresses()) as coordinator:
                coordinator.register("qws", _points(), shard_fn="angle")
                with tcp_server(
                    coordinator, handler=handle_cluster_request
                ) as (host, port):
                    with socket.create_connection((host, port), 10) as sock:
                        sock.sendall(
                            b'{"op": "remove", "dataset": "qws",'
                            b' "id": Infinity}\n{"op": "ping"}\n'
                        )
                        with sock.makefile("rb") as replies:
                            failed = json.loads(replies.readline())
                            pong = json.loads(replies.readline())
        assert failed["ok"] is False and failed["status"] == "internal"
        assert failed["error"].startswith("OverflowError: "), failed
        assert pong["pong"] is True and pong["shards"] == 2, pong

    def test_cluster_size_validated(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", "--cluster", "0"],
            env=subprocess_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert "--cluster" in proc.stderr


class TestCoordinatorCommand:
    def test_coordinator_over_external_shards(self):
        rows = _points(seed=29)
        with LocalCluster(2) as fleet:
            argv = [sys.executable, "-m", "repro.cli", "coordinator"]
            for address in fleet.addresses():
                argv += ["--shard", address]
            proc = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                env=subprocess_env(),
            )
            assert proc.stdin is not None and proc.stdout is not None
            with ServingClient(proc.stdout, proc.stdin, proc=proc) as client:
                pong = client.ping()
                assert pong["pong"] and pong["shards"] == 2, pong

                loaded = client.register("ext", rows.tolist(), shard_fn="hash")
                assert loaded["generations"] == [1, 1], loaded

                first = client.query("ext")
                assert first["ids"] == _expected_ids(
                    rows, QuerySpec(dataset="ext")
                )

                health = client.health()
                assert health["status"] in ("healthy", "ok"), health

                assert client.shutdown()["bye"] is True
            assert client.returncode == 0

    def test_coordinator_requires_shards(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "coordinator"],
            env=subprocess_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert "--shard" in proc.stderr


class TestTopClusterFrame:
    def test_frame_shows_shards_and_wire_traffic(self):
        rows = _points(n=80, seed=3)
        with LocalCluster(3) as fleet:
            with ClusterCoordinator(fleet.addresses()) as coordinator:
                coordinator.register("qws", rows, shard_fn="angle")
                coordinator.query(QuerySpec(dataset="qws"))
                fleet.kill(2)
                hurt = coordinator.query(
                    QuerySpec(dataset="qws", kind="skyband", k=2)
                )
                assert hurt.degraded

                with tcp_server(
                    coordinator, handler=handle_cluster_request
                ) as (host, port):
                    with ServingClient.connect(host, port) as client:
                        sample = collect_sample(client)

        frame = render_frame(sample, target=f"{host}:{port}")
        assert "shard" in frame and "lost" in frame, frame
        assert "wire:" in frame, frame
        assert "candidates crossed" in frame, frame
        assert "degraded" in frame, frame


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
