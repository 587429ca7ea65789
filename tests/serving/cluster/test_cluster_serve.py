"""CLI surfaces of the cluster: ``serve --cluster`` and ``coordinator``.

End-to-end over real pipes/sockets:

* ``repro serve --cluster N`` — in-process fleet + coordinator speaking
  the (superset) JSON-lines protocol over stdio;
* ``repro coordinator --shard ...`` — coordinator-only process fanning
  out to externally-owned shard servers;
* ``repro top`` — the cluster frame rendered from a live coordinator's
  ``stats`` (shard table, wire-pruning line);
* the one dispatcher — the same answers and error responses from a
  single node and a coordinator.
"""

import json
import socket
import subprocess
import sys

import numpy as np
import pytest

from repro.serving.client import ServingClient
from repro.serving.cluster import LocalCluster, ShardedBackend
from repro.serving.protocol import handle_request
from repro.serving.queries import QuerySpec, evaluate
from repro.serving.service import SkylineService
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
        def handler(service, request):
            if request.get("op") == "explode":
                raise RuntimeError("boom")
            return handle_request(service, request)

        with LocalCluster(2) as fleet:
            with SkylineService(backend=ShardedBackend(fleet.addresses())) as coordinator:
                coordinator.register("qws", _points(), shard_fn="angle")
                with tcp_server(coordinator, handler) as (host, port):
                    with socket.create_connection((host, port), 10) as sock:
                        sock.sendall(b'{"op": "explode"}\n{"op": "ping"}\n')
                        with sock.makefile("rb") as replies:
                            failed = json.loads(replies.readline())
                            pong = json.loads(replies.readline())
        assert failed["ok"] is False and failed["status"] == "internal"
        assert failed["error"] == "RuntimeError: boom", failed
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


class TestOneDispatcher:
    """``handle_request`` answers a single node and a coordinator alike."""

    @pytest.fixture(scope="class")
    def planes(self):
        with LocalCluster(2) as fleet:
            with SkylineService(
                backend=ShardedBackend(fleet.addresses())
            ) as coordinator:
                yield SkylineService(), coordinator

    def test_generated_register_matches_single_node(self, planes):
        register = {
            "op": "register", "dataset": "gen",
            "generate": {"n": 50, "d": 3, "seed": 1},
        }
        skylines = []
        for service in planes:
            assert handle_request(service, register)["ok"]
            answer = handle_request(service, {"op": "query", "dataset": "gen"})
            skylines.append(answer["ids"])
        assert skylines[0] == skylines[1] == [4, 14, 19, 29, 40, 41, 49]

    def test_malformed_generate_is_an_error_on_both_planes(self, planes):
        register = {"op": "register", "dataset": "bad", "generate": 5}
        single, cluster = (handle_request(s, register) for s in planes)
        assert single["status"] == "error" and "generate" in single["error"]
        assert cluster == single

    def test_unknown_remove_id_is_a_plain_message_on_both_planes(self, planes):
        register = {"op": "register", "dataset": "x", "points": _points().tolist()}
        remove = {"op": "remove", "dataset": "x", "id": 999}
        answers = []
        for service in planes:
            assert handle_request(service, register)["ok"]
            answers.append(handle_request(service, remove))
        single, cluster = answers
        assert single == {"ok": False, "status": "error", "error": "unknown point id 999"}
        assert cluster == {
            "ok": False, "status": "error",
            "error": "unknown point id 999 in dataset 'x'",
        }

    @pytest.mark.parametrize("shard_fn", [None, "hash"])
    @pytest.mark.parametrize(
        "point", [[0.1, 0.2], [-0.1, 0.2, 0.3]], ids=["wrong-width", "negative"]
    )
    def test_rejected_insert_is_the_same_error(self, planes, point, shard_fn):
        register = {"op": "register", "dataset": "w", "points": _points().tolist()}
        if shard_fn is not None:
            register["shard_fn"] = shard_fn
        insert = {"op": "insert", "dataset": "w", "point": point}
        responses = []
        for service in planes:
            assert handle_request(service, register)["ok"]
            responses.append(handle_request(service, insert))
        single, cluster = responses
        assert single["ok"] is False and single["status"] == "error", single
        assert cluster == single

    def test_rejected_register_leaves_no_dataset(self, planes):
        register = {"op": "register", "dataset": "neg", "points": [[-1, 2, 3]]}
        query = {"op": "query", "dataset": "neg"}
        single, cluster = (
            (handle_request(s, register), handle_request(s, query))
            for s in planes
        )
        assert single[0]["status"] == "error", single
        assert cluster == single

    def test_lost_shard_write_is_unavailable(self):
        with LocalCluster(1) as fleet:
            with SkylineService(
                backend=ShardedBackend(fleet.addresses())
            ) as coordinator:
                coordinator.register("qws", _points())
                fleet.kill(0)
                response = handle_request(coordinator, {
                    "op": "insert", "dataset": "qws", "point": [0.5] * 3,
                })
        assert response["status"] == "unavailable" and response["shard"] == 0


class TestTopClusterFrame:
    def test_frame_shows_shards_and_wire_traffic(self):
        rows = _points(n=80, seed=3)
        with LocalCluster(3) as fleet:
            with SkylineService(backend=ShardedBackend(fleet.addresses())) as coordinator:
                coordinator.register("qws", rows, shard_fn="angle")
                coordinator.query(QuerySpec(dataset="qws"))
                fleet.kill(2)
                hurt = coordinator.query(
                    QuerySpec(dataset="qws", kind="skyband", k=2)
                )
                assert hurt.degraded

                with tcp_server(coordinator) as (host, port):
                    with ServingClient.connect(host, port) as client:
                        sample = collect_sample(client)

        frame = render_frame(sample, target=f"{host}:{port}")
        assert "shard" in frame and "lost" in frame, frame
        assert "wire:" in frame, frame
        assert "candidates crossed" in frame, frame
        assert "degraded" in frame, frame


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
