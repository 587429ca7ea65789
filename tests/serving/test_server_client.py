"""End-to-end sessions: the spawned stdio server and the TCP server.

The stdio test is the same scripted session the CI smoke job runs (one
copy, in :mod:`tests.serving.harness`): load a QWS sample, query, insert,
re-query, and assert the generation bump and the cache miss -> hit
transition, gating on a clean exit code.
"""

import json
import socket
import sys
import threading

import numpy as np
import pytest

from repro.serving.client import ServingClient, ServingConnectionError
from repro.serving.protocol import handle_request
from repro.serving.server import make_tcp_server
from repro.serving.service import SkylineService

from tests.serving.harness import (
    scripted_session,
    spawn_server,
    subprocess_env,
    tcp_server,
)


class TestStdioSession:
    def test_scripted_smoke_session(self):
        with spawn_server("--max-inflight", "4") as client:
            responses = scripted_session(client, n=300, seed=7)
            after = responses["after"]

            band = client.query("qws", kind="skyband", k=3)
            assert band["ok"] and set(after["ids"]) <= set(band["ids"])

            missing = client.query("never-registered")
            assert missing["ok"] is False

            stats = client.stats()
            assert stats["datasets"]["qws"]["generation"] == 2
            assert stats["counters"]["serve.requests"] >= 4

            assert client.shutdown()["bye"] is True
        assert client.returncode == 0

    def test_invalid_flags_exit_nonzero(self):
        proc_client = spawn_server("--max-inflight", "0")
        proc_client._proc.stdin.close()
        proc_client._proc.stdout.close()
        assert proc_client._proc.wait(timeout=30) == 2

    def test_eof_without_shutdown_exits_cleanly(self):
        client = spawn_server()
        client.close()  # closing stdin ends the session loop
        assert client.returncode == 0

    def test_dead_server_raises_connection_error(self):
        client = spawn_server()
        assert client.ping()["pong"] is True
        client._proc.stdin.close()
        client._proc.stdout.read()  # drain until the process exits
        with pytest.raises(ServingConnectionError):
            client.call(op="ping")
        client._proc.wait(timeout=30)


class TestTcpSession:
    def test_concurrent_tcp_clients_share_the_service(self):
        with tcp_server(SkylineService()) as (host, port):
            with ServingClient.connect(host, port, timeout=10) as a, \
                    ServingClient.connect(host, port, timeout=10) as b:
                points = (np.random.default_rng(0).random((60, 3)) + 0.01)
                a.register("shared", points=points.tolist())
                first = b.query("shared")  # the other connection sees it
                assert first["ok"] and first["generation"] == 1
                second = a.query("shared")
                assert second["cache_hit"], "cache is shared across sessions"

    def test_malformed_register_does_not_drop_pipelined_requests(self):
        # Both lines go out in one write: the ping is already queued on the
        # connection when the bad register is handled.
        with tcp_server(SkylineService()) as (host, port):
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(
                    b'{"op": "register", "dataset": "e", "generate": 5}\n'
                    b'{"op": "ping"}\n'
                )
                with sock.makefile("rb") as replies:
                    bad = json.loads(replies.readline())
                    pong = json.loads(replies.readline())
        assert bad["ok"] is False and bad["status"] == "error"
        assert pong["ok"] is True and pong["pong"] is True

    def test_handler_exception_does_not_drop_pipelined_requests(self):
        def handler(service, request):
            if request.get("op") == "explode":
                raise RuntimeError("boom")
            return handle_request(service, request)

        service = SkylineService()
        service.register("qws", np.random.default_rng(0).random((50, 3)) + 0.01)
        with tcp_server(service, handler) as (host, port):
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(b'{"op": "explode"}\n{"op": "ping"}\n')
                with sock.makefile("rb") as replies:
                    failed = json.loads(replies.readline())
                    pong = json.loads(replies.readline())
        assert failed["ok"] is False and failed["status"] == "internal"
        assert pong["ok"] is True and pong["pong"] is True

    def test_tcp_shutdown_op_stops_the_server(self):
        server = make_tcp_server(SkylineService())
        host, port = server.server_address
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        with ServingClient.connect(host, port, timeout=10) as client:
            assert client.shutdown()["bye"] is True
        thread.join(timeout=10)
        assert not thread.is_alive()
        server.server_close()


@pytest.mark.skipif(sys.platform == "win32", reason="posix pipes")
class TestModuleEntry:
    def test_serve_help_exits_zero(self):
        import subprocess

        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", "--help"],
            capture_output=True, text=True, env=subprocess_env(), timeout=120,
        )
        assert proc.returncode == 0
        assert "JSON-lines" in proc.stdout
