"""Client helper for the JSON-lines serving protocol.

A :class:`ServingClient` speaks the :mod:`repro.serving.protocol` over
either transport the server offers:

* :meth:`ServingClient.spawn` — start ``repro serve`` as a subprocess and
  drive it over its stdio pipes (what the tests, the CI smoke job and the
  demo use: no ports, no races on bind);
* :meth:`ServingClient.connect` — connect to a running TCP server.

Methods mirror the protocol ops and return the decoded response dict;
transport failures raise :class:`ServingConnectionError`.  Application
errors stay data (``response["ok"] is False``) so callers can distinguish
a 429-style rejection from a broken server.
"""

from __future__ import annotations

import json
import socket
import subprocess
import sys
from typing import IO, Any, Dict, Sequence

__all__ = [
    "DEFAULT_MAX_LINE_BYTES",
    "ServingClient",
    "ServingConnectionError",
]


class ServingConnectionError(RuntimeError):
    """The transport died (EOF, closed socket, dead subprocess) or the
    peer wrote something that is not a protocol response (garbage JSON,
    an over-long line) — anything that means *this connection is not
    speaking the protocol anymore*."""


#: Response lines longer than this are treated as a broken peer, not
#: buffered without bound.  Generous: a 100k-row shard answer fits.
DEFAULT_MAX_LINE_BYTES = 64 * 1024 * 1024


class ServingClient:
    """Blocking request/response client over stdio pipes or a socket."""

    def __init__(
        self,
        reader: IO[str],
        writer: IO[str],
        *,
        proc: subprocess.Popen | None = None,
        sock: socket.socket | None = None,
        max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
    ):
        if max_line_bytes < 2:
            raise ValueError(f"max_line_bytes must be >= 2, got {max_line_bytes}")
        self._reader = reader
        self._writer = writer
        self._proc = proc
        self._sock = sock
        self.max_line_bytes = max_line_bytes

    # -- constructors -----------------------------------------------------------

    @classmethod
    def spawn(
        cls,
        *serve_args: str,
        python: str = sys.executable,
        **popen_kwargs: Any,
    ) -> "ServingClient":
        """Launch ``repro serve`` as a subprocess and attach to its pipes."""
        proc = subprocess.Popen(
            [python, "-m", "repro.cli", "serve", *serve_args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            **popen_kwargs,
        )
        assert proc.stdin is not None and proc.stdout is not None
        return cls(proc.stdout, proc.stdin, proc=proc)

    @classmethod
    def connect(cls, host: str, port: int, *, timeout: float | None = None) -> "ServingClient":
        """Connect to a running ``repro serve --tcp`` server."""
        sock = socket.create_connection((host, port), timeout=timeout)
        fh = sock.makefile("rw", encoding="utf-8", newline="\n")
        return cls(fh, fh, sock=sock)

    # -- transport --------------------------------------------------------------

    def call(self, **request: Any) -> Dict[str, Any]:
        """Send one request object; return the decoded response.

        Any way the peer can fail to answer — EOF, a closed socket, a
        read timeout, a line that is not JSON, a line longer than
        ``max_line_bytes`` — raises :class:`ServingConnectionError`;
        application-level failures come back as ``{"ok": false, ...}``
        response objects instead.
        """
        try:
            self._writer.write(json.dumps(request) + "\n")
            self._writer.flush()
            line = self._reader.readline(self.max_line_bytes)
        except (OSError, ValueError) as exc:
            raise ServingConnectionError(f"transport failed: {exc}") from exc
        if not line:
            raise ServingConnectionError(
                "server closed the connection (no response)"
            )
        if len(line) >= self.max_line_bytes and not line.endswith("\n"):
            raise ServingConnectionError(
                f"response line exceeded {self.max_line_bytes} bytes"
            )
        try:
            response = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ServingConnectionError(
                f"malformed response (bad JSON): {exc}"
            ) from exc
        if not isinstance(response, dict):
            raise ServingConnectionError(f"malformed response: {response!r}")
        return response

    def settimeout(self, timeout: float | None) -> None:
        """Bound every subsequent socket read/write (TCP clients only).

        A timed-out call surfaces as :class:`ServingConnectionError` —
        the cluster coordinator's per-shard deadline hook.  No-op over
        stdio pipes.
        """
        if self._sock is not None:
            self._sock.settimeout(timeout)

    def close(self) -> None:
        if self._proc is not None:
            for fh in (self._proc.stdin, self._proc.stdout):
                if fh is not None:
                    fh.close()
            self._proc.wait(timeout=30)
        if self._sock is not None:
            self._reader.close()
            self._sock.close()

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    @property
    def returncode(self) -> int | None:
        """The subprocess exit code (None while running / for TCP clients)."""
        return self._proc.poll() if self._proc is not None else None

    # -- protocol ops -----------------------------------------------------------

    def register(
        self,
        dataset: str,
        points: Sequence[Sequence[float]] | None = None,
        *,
        generate: Dict[str, int] | None = None,
        scheme: str = "angle",
        partitions: int = 8,
        shard_fn: str | None = None,
    ) -> Dict[str, Any]:
        request: Dict[str, Any] = {
            "op": "register",
            "dataset": dataset,
            "scheme": scheme,
            "partitions": partitions,
        }
        if points is not None:
            request["points"] = [list(map(float, row)) for row in points]
        if generate is not None:
            request["generate"] = generate
        if shard_fn is not None:
            request["shard_fn"] = shard_fn
        return self.call(**request)

    def query(self, dataset: str, kind: str = "skyline", **params: Any) -> Dict[str, Any]:
        return self.call(op="query", dataset=dataset, kind=kind, **params)

    def shard_query(
        self,
        dataset: str,
        kind: str = "skyline",
        *,
        filters: Sequence[Sequence[float]] | None = None,
        **params: Any,
    ) -> Dict[str, Any]:
        """One cluster fan-out leg: candidate ids *and* rows, filter-pruned."""
        request: Dict[str, Any] = {
            "op": "shard_query",
            "dataset": dataset,
            "kind": kind,
            **params,
        }
        if filters is not None:
            request["filters"] = [list(map(float, row)) for row in filters]
        return self.call(**request)

    def insert(self, dataset: str, point: Sequence[float]) -> Dict[str, Any]:
        return self.call(op="insert", dataset=dataset, point=list(map(float, point)))

    def remove(self, dataset: str, point_id: int) -> Dict[str, Any]:
        return self.call(op="remove", dataset=dataset, id=int(point_id))

    def stats(self) -> Dict[str, Any]:
        return self.call(op="stats")

    def health(self) -> Dict[str, Any]:
        return self.call(op="health")

    def slo(self) -> Dict[str, Any]:
        return self.call(op="slo")

    def events(
        self,
        n: int | None = 50,
        *,
        kinds: Sequence[str] | None = None,
        since_seq: int | None = None,
    ) -> Dict[str, Any]:
        """Tail of the server's structured event log (newest last)."""
        request: Dict[str, Any] = {"op": "events", "n": n}
        if kinds is not None:
            request["kinds"] = list(kinds)
        if since_seq is not None:
            request["since_seq"] = since_seq
        return self.call(**request)

    def metrics(self, format: str = "json") -> Dict[str, Any]:
        """The server's metrics registry (``json`` or ``prometheus``)."""
        return self.call(op="metrics", format=format)

    def ping(self) -> Dict[str, Any]:
        return self.call(op="ping")

    def shutdown(self) -> Dict[str, Any]:
        response = self.call(op="shutdown")
        return response
