import socket
import subprocess
import sys
import threading
import time

import pytest

from perfbench.loadgen import open_loop, windowed
from perfbench.spawn import BANNER, await_banner


class FakeServer:
    """JSON-lines server for one connection on one thread; stalls once
    before answering the request with index ``stall_at`` (``None``: never)."""

    def __init__(self, stall_at=None, stall_s=0.0):
        self.stall_at, self.stall_s = stall_at, stall_s
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = self.listener.getsockname()
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        conn, _ = self.listener.accept()
        with conn, conn.makefile("rb") as reader:
            for seen, _line in enumerate(reader):
                if seen == self.stall_at:
                    time.sleep(self.stall_s)
                conn.sendall(b'{"ok":true}\n')

    def close(self):
        self.listener.close()
        self.thread.join(timeout=5)


def test_a_stall_inflates_the_latency_of_requests_queued_behind_it():
    interval, stall_at, stall_s = 0.01, 5, 0.3
    server = FakeServer(stall_at, stall_s)
    try:
        n = 40
        out = open_loop(server.address, [b'{"op":"ping"}\n'] * n,
                        [i * interval for i in range(n)], connections=1)
    finally:
        server.close()
    assert out.completed() == n and out.lost == 0
    latency = [done - due for done, due in zip(out.done, out.due)]
    assert max(latency[:stall_at]) < 0.1
    # Request i was due (i - stall_at) intervals after the stalled one, so it
    # waited for the rest of the stall: timing from its actual send would
    # hide that wait only if the send itself had been held back.
    for i in range(stall_at + 1, stall_at + 20):
        assert latency[i] > stall_s - (i - stall_at) * interval - 0.05
    # The generator itself kept to the schedule.
    lag = [sent - due for sent, due in zip(out.sent, out.due)]
    assert max(lag) < 0.05


def test_windowed_keeps_the_pipe_full_and_finishes():
    server = FakeServer()
    try:
        out = windowed(server.address, [b'{"op":"ping"}\n'] * 500, connections=1,
                       window=8, duration_s=5.0)
    finally:
        server.close()
    assert out.completed() == 500 and out.ended > out.started


@pytest.mark.parametrize("banner", [
    "serving on 127.0.0.1:4242",
    "serving 3-shard cluster on 127.0.0.1:4242",
])
def test_both_banners_are_recognised(banner):
    match = BANNER.search(f"recovered dataset 'x'\n{banner}\n")
    assert match and match.groups() == ("127.0.0.1", "4242")


def test_startup_deadline_holds_while_the_child_is_silent(tmp_path):
    log = tmp_path / "server.log"
    with open(log, "wb") as fh:
        proc = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"],
                                stderr=fh)
    try:
        started = time.perf_counter()
        with pytest.raises(RuntimeError, match="no banner"):
            await_banner(proc, log, 0.5)
        assert time.perf_counter() - started < 5
    finally:
        proc.kill()
        proc.wait(timeout=10)
