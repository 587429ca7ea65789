"""A client that resets its connection ends its own session, quietly.

The reset surfaces in the session thread as ``ConnectionResetError`` on
read (or ``BrokenPipeError`` on write).  The server records a
``server.session_reset`` event, prints nothing, and keeps answering
other clients.
"""

import json
import socket
import struct
import threading
import time

import numpy as np

from repro.observability.events import get_events
from repro.serving.client import ServingClient
from repro.serving.server import make_tcp_server
from repro.serving.service import SkylineService


def _reset_events():
    return [e for e in get_events().tail(50) if e.kind == "server.session_reset"]


def test_reset_mid_session_is_an_event_not_a_traceback(capsys):
    service = SkylineService()
    service.register("qws", np.random.default_rng(0).random((50, 3)) + 0.01)
    server = make_tcp_server(service)
    errors = []
    server.handle_error = lambda request, address: errors.append(address)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        sock = socket.create_connection((host, port), timeout=10)
        sock.sendall(json.dumps({"op": "query", "dataset": "qws"}).encode() + b"\n")
        reply = sock.makefile("rb").readline()
        assert json.loads(reply)["ok"] is True
        # The session now waits in recv for the next line; SO_LINGER with
        # a zero timeout makes close() send RST instead of FIN.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()

        deadline = time.monotonic() + 10
        while not _reset_events() and time.monotonic() < deadline:
            time.sleep(0.01)
        (event,) = _reset_events()
        assert event.attrs["error"] in ("ConnectionResetError", "BrokenPipeError")

        with ServingClient.connect(host, port, timeout=10) as client:
            assert client.query("qws")["ok"] is True
    finally:
        server.stop()
        server.server_close()
        thread.join(timeout=10)
    assert errors == [], "socketserver's handle_error must not run"
    assert capsys.readouterr().err == ""
