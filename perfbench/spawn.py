"""Start, watch and stop the program under test.

:class:`Server` launches ``repro serve --tcp 127.0.0.1:0 ...`` (directly,
or through :mod:`perfbench.launcher` for traced runs) with stderr sent
to a log file, and polls that file for the bound-address banner.  Both
banners are recognised (``serving on H:P`` and ``serving N-shard
cluster on H:P``), and the startup deadline holds even while the child
prints nothing, because the wait is a poll loop, not a blocking read.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

BANNER = re.compile(r"serving (?:\d+-shard cluster )?on ([\d.]+):(\d+)")
STARTUP_DEADLINE_S = 60.0


def child_env(root: Path) -> Dict[str, str]:
    """The environment of every child: repo sources importable, and no
    ``REPRO_*`` overrides, so the defaults are what gets measured."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    env["PYTHONHASHSEED"] = "0"
    return env


def pin_benchmark_core() -> set:
    """Pin this process to its first core; returns the cores for children.

    The benchmark (load generator, in-process engine) keeps the first core
    and every child gets the rest, as a client and a server would sit on
    separate machines; left to the scheduler, their placement changes from
    run to run and moves the latencies with it.  On one core both share it.
    """
    cores = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cores[0]})
    return set(cores[1:]) or {cores[0]}


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size of a live process (Linux ``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def await_banner(proc: subprocess.Popen, log_path: Path, deadline_s: float
                 ) -> Tuple[str, int]:
    """Poll ``log_path`` for the bound address; raise on exit or deadline."""
    deadline = time.perf_counter() + deadline_s
    while True:
        match = BANNER.search(log_path.read_text(errors="replace"))
        if match:
            return match.group(1), int(match.group(2))
        if proc.poll() is not None:
            raise RuntimeError(
                f"server exited with {proc.returncode} before its banner: "
                f"{log_path.read_text(errors='replace')[-2000:]}"
            )
        if time.perf_counter() > deadline:
            raise RuntimeError(f"server printed no banner within {deadline_s}s")
        time.sleep(0.002)


class Server:
    """One ``repro serve`` child process on a loopback port."""

    def __init__(
        self,
        root: Path,
        serve_args: Sequence[str],
        log_path: Path,
        *,
        cores: set,
        spans_dir: Path | None = None,
        deadline_s: float = STARTUP_DEADLINE_S,
    ):
        if spans_dir is None:
            head = [sys.executable, "-m", "repro.cli"]
        else:
            head = [sys.executable, "-m", "perfbench.launcher", "--spans-dir", str(spans_dir)]
        self.log_path = log_path
        self.args = [*head, "serve", "--tcp", "127.0.0.1:0", *serve_args]
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            self.args, cwd=root, env=child_env(root), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=self._log,
        )
        try:
            os.sched_setaffinity(self.proc.pid, cores)
            self.address = await_banner(self.proc, log_path, deadline_s)
        except BaseException:
            self.kill()
            raise

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def kill(self) -> float:
        """SIGKILL (the crash under test); returns the instant it was sent."""
        at = time.perf_counter()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=30)
        self._log.close()
        return at

    def shutdown(self) -> None:
        """Orderly stop via the ``shutdown`` op; SIGKILL if that fails."""
        try:
            with Client(self.address) as client:
                client.call({"op": "shutdown"})
            self.proc.wait(timeout=30)
        except (OSError, RuntimeError, subprocess.TimeoutExpired):
            pass
        self.kill()


class Client:
    """Minimal blocking JSON-lines client for set-up and checks (not load)."""

    def __init__(self, address: Tuple[str, int], timeout: float = 60.0):
        self.sock = socket.create_connection(address, timeout=timeout)
        self.file = self.sock.makefile("rwb")

    def call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return self.calls([request])[0]

    def calls(self, requests: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Pipelined batch: write all, then read all answers in order."""
        for request in requests:
            self.file.write((json.dumps(request, separators=(",", ":")) + "\n").encode())
        self.file.flush()
        out = []
        for request in requests:
            line = self.file.readline()
            if not line:
                raise RuntimeError(f"connection closed answering {request.get('op')}")
            out.append(json.loads(line))
        return out

    def close(self) -> None:
        self.file.close()
        self.sock.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
