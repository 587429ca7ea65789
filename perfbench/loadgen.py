"""Single-threaded, pipelined load generator over JSON-lines TCP.

One thread drives every connection through a selector, so the
generator never needs more threads than connections and never waits on
one connection while another has work.  Each connection pipelines:
requests are written when due without waiting for earlier responses,
and responses come back in request order (the server answers one
connection's lines in sequence).

Two disciplines:

* :func:`open_loop` sends request ``i`` at ``start + offsets[i]`` no
  matter how the server is doing, and times it from that *scheduled*
  arrival, so a stall inflates the latency of every request queued
  behind it instead of hiding it (coordinated omission).  It records
  how late the generator itself ran (send lag).
* :func:`windowed` keeps a fixed number of requests outstanding per
  connection, as fast as the server answers: the throughput discipline.
"""

from __future__ import annotations

import collections
import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Deque, List, Sequence, Tuple

__all__ = ["Outcome", "open_loop", "windowed"]


@dataclass
class Outcome:
    """Per-request timings (perf_counter seconds) and raw response lines."""

    due: List[float]
    sent: List[float]
    done: List[float]
    responses: List[bytes | None]
    started: float = 0.0
    ended: float = 0.0
    lost: int = 0

    @classmethod
    def sized(cls, n: int) -> "Outcome":
        nan = float("nan")
        return cls([nan] * n, [nan] * n, [nan] * n, [None] * n)

    def completed(self) -> int:
        return sum(r is not None for r in self.responses)


@dataclass
class _Conn:
    sock: socket.socket
    out: bytearray = field(default_factory=bytearray)
    inbuf: bytearray = field(default_factory=bytearray)
    pending: Deque[int] = field(default_factory=collections.deque)
    closed: bool = False


class _Pump:
    """Connections plus the selector that moves their bytes."""

    def __init__(self, address: Tuple[str, int], connections: int, outcome: Outcome):
        self.outcome = outcome
        # select(2) takes microsecond timeouts; epoll rounds up to whole
        # milliseconds, which would make every open-loop send up to 1 ms late.
        self.sel = selectors.SelectSelector()
        self.conns: List[_Conn] = []
        for _ in range(connections):
            sock = socket.create_connection(address, timeout=10.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            conn = _Conn(sock)
            self.conns.append(conn)
            self.sel.register(sock, selectors.EVENT_READ, conn)

    def close(self) -> None:
        for conn in self.conns:
            self.sel.unregister(conn.sock)
            conn.sock.close()
        self.sel.close()

    def send(self, conn: _Conn, index: int, line: bytes) -> None:
        conn.pending.append(index)
        conn.out += line
        self._flush(conn)

    def _flush(self, conn: _Conn) -> None:
        if conn.out and not conn.closed:
            try:
                sent = conn.sock.send(conn.out)
            except BlockingIOError:
                sent = 0
            except OSError:
                self._fail(conn)
                return
            del conn.out[:sent]
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if conn.out else 0)
        if not conn.closed:
            self.sel.modify(conn.sock, events, conn)

    def _fail(self, conn: _Conn) -> None:
        """The connection died: every request still pending on it is lost."""
        conn.closed = True
        self.outcome.lost += len(conn.pending)
        conn.pending.clear()
        conn.out.clear()

    def poll(self, timeout: float) -> List[_Conn]:
        """Move bytes for up to ``timeout`` s; returns connections that completed."""
        finished: List[_Conn] = []
        for key, mask in self.sel.select(max(timeout, 0.0)):
            conn: _Conn = key.data
            if conn.closed:
                continue
            if mask & selectors.EVENT_WRITE:
                self._flush(conn)
            if mask & selectors.EVENT_READ:
                try:
                    data = conn.sock.recv(1 << 20)
                except BlockingIOError:
                    continue
                except OSError:
                    data = b""
                now = time.perf_counter()
                if not data:
                    self._fail(conn)
                    continue
                conn.inbuf += data
                while True:
                    cut = conn.inbuf.find(b"\n")
                    if cut < 0:
                        break
                    line = bytes(conn.inbuf[:cut])
                    del conn.inbuf[: cut + 1]
                    if not conn.pending:
                        self._fail(conn)  # an answer nobody asked for
                        break
                    index = conn.pending.popleft()
                    self.outcome.done[index] = now
                    self.outcome.responses[index] = line
                finished.append(conn)
        return finished

    def outstanding(self) -> int:
        return sum(len(c.pending) for c in self.conns)


def open_loop(
    address: Tuple[str, int],
    lines: Sequence[bytes],
    offsets: Sequence[float],
    *,
    connections: int,
    drain_s: float = 30.0,
) -> Outcome:
    """Send ``lines[i]`` at ``start + offsets[i]`` on connection ``i % connections``.

    The fixed assignment keeps which requests queue behind which the same
    on every run of one stream.
    """
    n = len(lines)
    outcome = Outcome.sized(n)
    pump = _Pump(address, connections, outcome)
    try:
        start = time.perf_counter() + 0.01
        outcome.started = start
        nxt = 0
        while True:
            now = time.perf_counter()
            while nxt < n and start + offsets[nxt] <= now:
                outcome.due[nxt] = start + offsets[nxt]
                outcome.sent[nxt] = now
                pump.send(pump.conns[nxt % connections], nxt, lines[nxt])
                nxt += 1
            if nxt >= n:
                break
            pump.poll(min(start + offsets[nxt] - time.perf_counter(), 0.05))
        deadline = time.perf_counter() + drain_s
        while pump.outstanding() and time.perf_counter() < deadline:
            pump.poll(0.05)
        outcome.lost += pump.outstanding()
        outcome.ended = time.perf_counter()
    finally:
        pump.close()
    return outcome


def windowed(
    address: Tuple[str, int],
    lines: Sequence[bytes],
    *,
    connections: int,
    window: int,
    duration_s: float,
    block: int = 1,
    drain_s: float = 30.0,
) -> Outcome:
    """Keep ``window`` requests outstanding per connection for ``duration_s``.

    Requests are taken from ``lines`` in order; sending stops at the first
    multiple of ``block`` requests after ``duration_s`` (so a stream built
    of fixed-mix blocks is sent in whole blocks) or at the end of the
    stream, and the pipe is drained.  ``Outcome.ended`` is the last
    completion time.
    """
    n = len(lines)
    outcome = Outcome.sized(n)
    pump = _Pump(address, connections, outcome)
    try:
        start = time.perf_counter()
        outcome.started = start
        stop = start + duration_s
        nxt = 0

        def refill(conn: _Conn) -> None:
            nonlocal nxt
            now = time.perf_counter()
            while (len(conn.pending) < window and nxt < n and not conn.closed
                   and (now < stop or nxt % block)):
                outcome.due[nxt] = outcome.sent[nxt] = now
                pump.send(conn, nxt, lines[nxt])
                nxt += 1

        for conn in pump.conns:
            refill(conn)
        deadline = stop + drain_s
        while pump.outstanding() and time.perf_counter() < deadline:
            for conn in pump.poll(0.05):
                refill(conn)
        outcome.lost += pump.outstanding()
        done = [t for t in outcome.done if t == t]
        outcome.ended = max(done) if done else time.perf_counter()
    finally:
        pump.close()
    return outcome
