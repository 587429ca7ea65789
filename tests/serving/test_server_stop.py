"""Tracked session threads and the bounded-join ``stop`` path.

``ServingTCPServer`` must know its live sessions: a clean stop joins
them (bounded) so in-flight responses finish and WAL appends are never
cut mid-frame, and whatever the bound abandons is *reported* in the
``server.stop`` event rather than silently reaped at process exit.
"""

import threading

from repro.observability.events import get_events
from repro.serving.client import ServingClient
from repro.serving.server import make_tcp_server
from repro.serving.service import SkylineService


def _server():
    # The server is bound and listening once constructed, so no probe
    # connection (whose session could outlive it) is needed.
    server = make_tcp_server(SkylineService())
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    return server, thread, str(host), int(port)


def _stop_events():
    return [e for e in get_events().tail(50) if e.kind == "server.stop"]


class TestStop:
    def test_clean_stop_joins_everything(self):
        server, thread, host, port = _server()
        with ServingClient.connect(host, port) as client:
            assert client.ping()["pong"] is True
            assert server.live_sessions() == 1
        # The client hung up; its session thread unwinds on EOF.
        abandoned = server.stop()
        assert abandoned == 0
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()
        (event,) = _stop_events()
        assert event.attrs["abandoned"] == 0

    def test_sessions_blocked_past_the_bound_are_reported(self):
        server, thread, host, port = _server()
        client = ServingClient.connect(host, port)
        try:
            assert client.ping()["pong"] is True
            # The session sits in recv with the client still attached: a
            # tight join bound must give up on it and say so.
            abandoned = server.stop(join_timeout_s=0.2)
            assert abandoned == 1
            (event,) = _stop_events()
            assert event.attrs["abandoned"] == 1
        finally:
            client.close()
            server.server_close()
            thread.join(timeout=10)

    def test_stop_is_idempotent(self):
        server, thread, host, port = _server()
        assert server.stop() == 0
        assert server.stop() == 0, "second stop must be a no-op"
        assert len(_stop_events()) == 1, "one stop, one event"
        server.server_close()
        thread.join(timeout=10)

    def test_shutdown_op_stops_the_whole_server(self):
        server, thread, host, port = _server()
        with ServingClient.connect(host, port) as client:
            assert client.shutdown()["bye"] is True
        thread.join(timeout=10)
        assert not thread.is_alive(), "serve_forever must have returned"
        for _ in range(100):
            if _stop_events():
                break
            threading.Event().wait(0.02)
        assert _stop_events(), "the shutdown op must go through stop()"
        server.server_close()
