"""Open-loop load generator + crash/recovery scenario for the serving layer.

``repro loadtest`` (and the ``loadtest`` section of ``repro bench``)
drives a *live* ``repro serve --tcp`` process the way a client
population would: requests are released on a fixed arrival schedule
(``start + i / qps``) regardless of how fast earlier ones complete —
the open-loop discipline, which unlike closed-loop benchmarking does
not let a slow server throttle its own offered load, so queueing and
shedding behaviour show up in the tail percentiles instead of hiding
in a depressed request rate.

The generated mix covers all four query kinds plus insert/remove
mutations, deterministically derived per request index from
:func:`repro.mapreduce.faults.stable_rng` — two runs with the same seed
offer byte-identical request streams.

:func:`run_scenario` wraps the generator in the durability story the
BENCH record needs: spawn a server with ``--data-dir``, load it, run
the open-loop mix, ``SIGKILL`` it mid-traffic, restart it from the same
directory, and measure **recovery-time-to-first-answer** plus id-for-id
parity of the recovered answers against the pre-crash ones.
"""

from __future__ import annotations

import json
import os
import re
import selectors
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.mapreduce.faults import stable_rng
from repro.serving.client import ServingClient, ServingConnectionError

__all__ = [
    "LoadTestConfig",
    "percentile_ms",
    "run_loadtest",
    "run_scenario",
    "spawn_tcp_server",
]

#: Weight of each op in the generated mix; mutations ride alongside.
DEFAULT_MIX: Dict[str, float] = {
    "skyline": 0.55,
    "skyband": 0.2,
    "constrained": 0.15,
    "subspace": 0.1,
}


@dataclass
class LoadTestConfig:
    """Knobs of one open-loop run."""

    dataset: str = "loadtest"
    qps: float = 200.0
    duration_s: float = 2.0
    workers: int = 8
    mutation_fraction: float = 0.1
    mix: Dict[str, float] = field(default_factory=lambda: dict(DEFAULT_MIX))
    n_points: int = 400
    dims: int = 3
    seed: int = 0
    request_timeout_s: float = 10.0

    def validate(self) -> None:
        if self.qps <= 0:
            raise ValueError(f"qps must be > 0, got {self.qps}")
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be > 0, got {self.duration_s}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not 0.0 <= self.mutation_fraction < 1.0:
            raise ValueError(
                f"mutation_fraction must be in [0, 1), got {self.mutation_fraction}"
            )
        if self.n_points < 1 or self.dims < 2:
            raise ValueError(
                f"need n_points >= 1 and dims >= 2, got "
                f"{self.n_points} x {self.dims}"
            )
        unknown = set(self.mix) - set(DEFAULT_MIX)
        if unknown:
            raise ValueError(f"unknown query kinds in mix: {sorted(unknown)}")
        if not self.mix or sum(self.mix.values()) <= 0:
            raise ValueError("mix must have positive total weight")

    def points(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        return rng.random((self.n_points, self.dims))


def _build_request(index: int, config: LoadTestConfig) -> Dict[str, Any]:
    """The deterministic request for arrival ``index``."""
    rng = stable_rng(config.seed, "loadtest", index)
    if rng.random() < config.mutation_fraction:
        if rng.random() < 0.5:
            point = [rng.random() for _ in range(config.dims)]
            return {"op": "insert", "dataset": config.dataset, "point": point}
        # Removes target the initial id range; an id already removed by
        # an earlier arrival answers with a KeyError-shaped error, which
        # the generator counts as answered (the server is not wrong).
        return {
            "op": "remove",
            "dataset": config.dataset,
            "id": rng.randrange(config.n_points),
        }
    kinds, weights = zip(*sorted(config.mix.items()))
    kind = rng.choices(kinds, weights=weights, k=1)[0]
    request: Dict[str, Any] = {
        "op": "query",
        "dataset": config.dataset,
        "kind": kind,
    }
    if kind == "skyband":
        request["k"] = rng.randrange(1, 4)
    elif kind == "constrained":
        lo = [round(rng.random() * 0.3, 3) for _ in range(config.dims)]
        request["lower"] = lo
        request["upper"] = [round(v + 0.5, 3) for v in lo]
    elif kind == "subspace":
        width = rng.randrange(2, config.dims + 1)
        request["dims"] = sorted(rng.sample(range(config.dims), width))
    return request


def percentile_ms(latencies_s: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``latencies_s``, in milliseconds."""
    if not latencies_s:
        return 0.0
    return float(np.percentile(np.asarray(latencies_s), q) * 1e3)


def run_loadtest(
    host: str, port: int, config: LoadTestConfig
) -> Dict[str, Any]:
    """Replay the open-loop mix against a live server; returns the stats.

    Arrival ``i`` is released at ``start + i / qps`` by one of
    ``config.workers`` threads (each with its own TCP connection).  A
    worker running behind schedule fires immediately but never skips —
    offered load is what the config says, which is what makes shed and
    degraded counts meaningful.
    """
    config.validate()
    total = max(1, int(config.qps * config.duration_s))
    interval = 1.0 / config.qps
    start = time.perf_counter() + 0.05  # let every worker reach its loop
    counts = {
        "sent": 0,
        "answered": 0,
        "shed": 0,
        "degraded": 0,
        "errors": 0,
        "mutations": 0,
        "cache_hits": 0,
    }
    by_kind: Dict[str, int] = {}
    latencies: List[float] = []
    merge_lock = threading.Lock()

    def worker(worker_id: int) -> None:
        local_counts = dict.fromkeys(counts, 0)
        local_kinds: Dict[str, int] = {}
        local_latencies: List[float] = []
        try:
            client = ServingClient.connect(
                host, port, timeout=config.request_timeout_s
            )
        except OSError:
            with merge_lock:
                counts["errors"] += sum(
                    1 for i in range(worker_id, total, config.workers)
                )
            return
        with client:
            for i in range(worker_id, total, config.workers):
                delay = (start + i * interval) - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                request = _build_request(i, config)
                local_counts["sent"] += 1
                if request["op"] != "query":
                    local_counts["mutations"] += 1
                else:
                    local_kinds[request["kind"]] = (
                        local_kinds.get(request["kind"], 0) + 1
                    )
                sent_at = time.perf_counter()
                try:
                    response = client.call(**request)
                except ServingConnectionError:
                    local_counts["errors"] += 1
                    break  # this connection is dead; drop its remainder
                elapsed = time.perf_counter() - sent_at
                if request["op"] == "query":
                    local_latencies.append(elapsed)
                status = response.get("status")
                if response.get("ok"):
                    local_counts["answered"] += 1
                    if response.get("degraded"):
                        local_counts["degraded"] += 1
                    if response.get("cache_hit"):
                        local_counts["cache_hits"] += 1
                elif status == "rejected":
                    local_counts["shed"] += 1
                elif request["op"] == "remove":
                    # Double-remove of an id an earlier arrival already
                    # dropped: the server is right, not failing.
                    local_counts["answered"] += 1
                else:
                    local_counts["errors"] += 1
        with merge_lock:
            for key, value in local_counts.items():
                counts[key] += value
            for kind, value in local_kinds.items():
                by_kind[kind] = by_kind.get(kind, 0) + value
            latencies.extend(local_latencies)

    threads = [
        threading.Thread(target=worker, args=(w,), daemon=True)
        for w in range(config.workers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = max(time.perf_counter() - start, 1e-9)
    return {
        "target_qps": config.qps,
        "achieved_qps": round(counts["sent"] / elapsed, 3),
        "duration_s": round(elapsed, 6),
        "requests": {**counts, "by_kind": dict(sorted(by_kind.items()))},
        "latency_ms": {
            "p50": round(percentile_ms(latencies, 50), 3),
            "p95": round(percentile_ms(latencies, 95), 3),
            "p99": round(percentile_ms(latencies, 99), 3),
        },
    }


# -- live-server scaffolding ----------------------------------------------------

#: The bound-address banner of ``repro serve --tcp``, single-node
#: ("serving on H:P") or cluster ("serving N-shard cluster on H:P").
_BOUND_RE = re.compile(r"serving (?:\d+-shard cluster )?on ([\d.]+):(\d+)")


def spawn_tcp_server(
    *serve_args: str, python: str = sys.executable, startup_timeout_s: float = 30.0
) -> Tuple[subprocess.Popen, str, int]:
    """Spawn ``repro serve --tcp 127.0.0.1:0 ...``; returns (proc, host, port).

    The bound address is parsed from the server's stderr banner; the
    stderr pipe is then drained by a daemon thread so the child can
    never block on a full pipe buffer.  Raises ``RuntimeError`` (and kills
    the child) if no banner arrives within ``startup_timeout_s``, whether
    the child exits, prints something else, or stays silent.
    """
    proc = subprocess.Popen(
        [python, "-m", "repro.cli", "serve", "--tcp", "127.0.0.1:0", *serve_args],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert proc.stderr is not None
    deadline = time.monotonic() + startup_timeout_s
    fd = proc.stderr.fileno()
    buf = b""
    with selectors.DefaultSelector() as sel:
        sel.register(fd, selectors.EVENT_READ)
        while sel.select(max(deadline - time.monotonic(), 0.0)):
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            buf += chunk
            # Complete lines only: a port cut mid-read must not match.
            lines = buf[: buf.rfind(b"\n") + 1].decode(errors="replace")
            match = _BOUND_RE.search(lines)
            if match:
                threading.Thread(
                    target=_drain, args=(proc.stderr,), daemon=True
                ).start()
                return proc, match.group(1), int(match.group(2))
    proc.kill()
    proc.wait()
    proc.stderr.close()
    raise RuntimeError("server did not report a bound address")


def _drain(stream: Any) -> None:
    with stream:
        for _ in stream:
            pass


def _await_first_answer(
    host: str, port: int, dataset: str, *, timeout_s: float = 30.0
) -> Tuple[float, Dict[str, Any]]:
    """Seconds until the server answers a skyline query ok, + the answer."""
    started = time.perf_counter()
    deadline = started + timeout_s
    last_error: Exception | None = None
    while time.perf_counter() < deadline:
        try:
            with ServingClient.connect(host, port, timeout=5.0) as client:
                response = client.query(dataset)
                if response.get("ok"):
                    return time.perf_counter() - started, response
        except (OSError, ServingConnectionError) as exc:
            last_error = exc
        time.sleep(0.02)
    raise RuntimeError(f"no answer from recovered server: {last_error}")


def run_scenario(
    config: LoadTestConfig,
    data_dir: str,
    *,
    serve_args: Sequence[str] = (),
    fsync: str = "always",
    snapshot_every: int = 64,
) -> Dict[str, Any]:
    """The full durability scenario: load, traffic, SIGKILL, recover.

    1. spawn a server persisting under ``data_dir``; register the
       dataset;
    2. run the open-loop mix against it;
    3. record the current answers for every query kind, then ``SIGKILL``
       the process (no shutdown handshake, no flush beyond what the
       fsync policy already guaranteed);
    4. restart from the same directory, measure time-to-first-answer,
       and compare every query kind's ids against step 3 — the id-for-id
       recovery parity check, end to end over the real CLI.
    """
    config.validate()
    durability_args = [
        "--data-dir", data_dir, "--fsync", fsync,
        "--snapshot-every", str(snapshot_every),
    ]
    proc, host, port = spawn_tcp_server(*durability_args, *serve_args)
    parity_specs: List[Dict[str, Any]] = [
        {"kind": "skyline"},
        {"kind": "skyband", "k": 2},
        {
            "kind": "constrained",
            "lower": [0.0] * config.dims,
            "upper": [0.8] * config.dims,
        },
        {"kind": "subspace", "dims": [0, 1]},
    ]
    try:
        with ServingClient.connect(host, port, timeout=10.0) as client:
            response = client.register(config.dataset, config.points())
            if not response.get("ok"):
                raise RuntimeError(f"register failed: {response}")
        stats = run_loadtest(host, port, config)
        pre_crash: List[Dict[str, Any]] = []
        with ServingClient.connect(host, port, timeout=10.0) as client:
            for spec in parity_specs:
                answer = client.query(config.dataset, **spec)
                if not answer.get("ok"):
                    raise RuntimeError(f"pre-crash query failed: {answer}")
                pre_crash.append(answer)
    finally:
        proc.kill()  # SIGKILL: the crash under test (also the error path)
        proc.wait(timeout=30)

    proc2, host2, port2 = spawn_tcp_server(*durability_args, *serve_args)
    try:
        recovery_time_s, _ = _await_first_answer(host2, port2, config.dataset)
        parity = True
        recovered_generation = None
        wal_metrics: Dict[str, Any] = {}
        with ServingClient.connect(host2, port2, timeout=10.0) as client:
            for spec, before in zip(parity_specs, pre_crash):
                after = client.query(config.dataset, **spec)
                if (
                    not after.get("ok")
                    or after.get("ids") != before.get("ids")
                    or after.get("generation") != before.get("generation")
                ):
                    parity = False
                recovered_generation = after.get("generation")
            metrics = client.metrics().get("metrics", {})
            counters = metrics.get("counters", {})
            wal_metrics = {
                "records_replayed": counters.get("wal.records_replayed", 0),
                "appends": counters.get("wal.appends", 0),
                "checkpoints": counters.get("wal.checkpoints", 0),
            }
            client.shutdown()
        proc2.wait(timeout=30)
    finally:
        if proc2.poll() is None:
            proc2.kill()
            proc2.wait(timeout=30)

    snapshot_bytes = 0
    wal_bytes = 0
    for root, _dirs, files in os.walk(data_dir):
        for name in files:
            size = os.path.getsize(os.path.join(root, name))
            if name == "snapshot.bin":
                snapshot_bytes += size
            elif name == "wal.log":
                wal_bytes += size
    raw_points_bytes = config.n_points * config.dims * 8
    stats["recovery"] = {
        "recovery_time_s": round(recovery_time_s, 6),
        "parity": parity,
        "generation": recovered_generation,
    }
    stats["durability"] = {
        **wal_metrics,
        "snapshot_bytes": snapshot_bytes,
        "wal_bytes": wal_bytes,
        "raw_points_bytes": raw_points_bytes,
        "snapshot_to_raw_ratio": (
            round(snapshot_bytes / raw_points_bytes, 4) if raw_points_bytes else 0.0
        ),
        "fsync": fsync,
        "snapshot_every": snapshot_every,
    }
    return stats


def render(stats: Dict[str, Any]) -> str:
    """One human-readable block for the CLI (the JSON is the real output)."""
    lines = [
        f"target {stats['target_qps']} qps, achieved "
        f"{stats['achieved_qps']} qps over {stats['duration_s']}s",
        "latency p50/p95/p99: "
        f"{stats['latency_ms']['p50']} / {stats['latency_ms']['p95']} / "
        f"{stats['latency_ms']['p99']} ms",
    ]
    req = stats["requests"]
    lines.append(
        f"requests: {req['sent']} sent, {req['answered']} answered, "
        f"{req['shed']} shed, {req['degraded']} degraded, "
        f"{req['errors']} errors ({req['mutations']} mutations)"
    )
    if "recovery" in stats:
        rec = stats["recovery"]
        lines.append(
            f"recovery: first answer after {rec['recovery_time_s']}s, "
            f"id-for-id parity={'yes' if rec['parity'] else 'NO'} "
            f"(generation {rec['generation']})"
        )
    if "durability" in stats:
        dur = stats["durability"]
        lines.append(
            f"durability: {dur['records_replayed']} record(s) replayed, "
            f"snapshot {dur['snapshot_bytes']}B vs raw {dur['raw_points_bytes']}B "
            f"(ratio {dur['snapshot_to_raw_ratio']})"
        )
    return "\n".join(lines)


def dump_json(stats: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(stats, fh, indent=2, sort_keys=True)
        fh.write("\n")
