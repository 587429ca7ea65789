"""Shared fixtures-without-pytest for the serving suites and CI smoke.

Every serving test that spawns a server subprocess, boots a loopback TCP
server, or drives the canonical scripted session used to do it inline;
this module is the one copy:

* :data:`SRC_DIR` / :func:`subprocess_env` — make ``repro`` importable in
  spawned interpreters regardless of how the suite itself was launched;
* :func:`spawn_server` — ``repro serve`` (or ``repro serve --cluster N``)
  as a subprocess driven over stdio pipes;
* :func:`tcp_server` — a context-managed loopback
  :func:`~repro.serving.server.make_tcp_server` (of a single node or a
  coordinator front end);
* :func:`wait_for_port` — poll until an address accepts connections;
* :func:`scripted_session` — the canonical register / query / warm-hit /
  insert / invalidated-re-query storyline;
* :func:`run_ci_smoke` — the CI serving-smoke job body (telemetry-plane
  assertions + the event-log artifact), callable as
  ``python -c "from tests.serving.harness import run_ci_smoke; run_ci_smoke()"``;
* :func:`run_durability_smoke` — the CI durability-smoke job body (two
  SIGKILL-and-recover legs over ``repro serve --data-dir``).
"""

from __future__ import annotations

import os
import socket
import threading
import time
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

import numpy as np

import repro
from repro.serving.client import ServingClient

__all__ = [
    "SRC_DIR",
    "run_ci_smoke",
    "run_durability_smoke",
    "scripted_session",
    "spawn_server",
    "subprocess_env",
    "tcp_server",
    "wait_for_port",
]

#: Directory that makes ``import repro`` work in a child interpreter.
SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)


def subprocess_env(**extra: str) -> Dict[str, str]:
    """A copy of the environment with :data:`SRC_DIR` on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env.update(extra)
    return env


def spawn_server(*serve_args: str, **popen_kwargs: Any) -> ServingClient:
    """``repro serve [args...]`` as a stdio-piped subprocess client."""
    popen_kwargs.setdefault("env", subprocess_env())
    return ServingClient.spawn(*serve_args, **popen_kwargs)


@contextmanager
def tcp_server(service: Any, handler: Any = None) -> Iterator[Tuple[str, int]]:
    """A serving TCP server on a free loopback port, torn down on exit.

    ``handler`` replaces the server's request dispatcher when given."""
    from repro.serving.server import make_tcp_server

    server = make_tcp_server(service)
    if handler is not None:
        server.handler = handler
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        yield str(host), int(port)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def wait_for_port(host: str, port: int, *, timeout_s: float = 10.0) -> None:
    """Block until ``host:port`` accepts a TCP connection."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            socket.create_connection((host, port), timeout=1.0).close()
            return
        except OSError:
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"{host}:{port} not accepting after {timeout_s}s"
                ) from None
            time.sleep(0.05)


def scripted_session(
    client: ServingClient,
    *,
    dataset: str = "qws",
    n: int = 500,
    d: int = 4,
    seed: int = 0,
) -> Dict[str, Dict[str, Any]]:
    """The canonical serving storyline against an open client.

    register → cold query → warm cache hit → insert (generation bump) →
    invalidated re-query containing the new point.  Returns the decoded
    responses keyed ``first`` / ``warm`` / ``inserted`` / ``after`` so
    callers can pile on their own assertions.
    """
    assert client.ping()["pong"] is True

    loaded = client.register(dataset, generate={"n": n, "d": d, "seed": seed})
    assert loaded["ok"] and loaded["size"] == n, loaded
    assert loaded["generation"] == 1, loaded

    first = client.query(dataset)
    assert first["ok"] and not first["cache_hit"], first
    assert first["generation"] == 1, first

    warm = client.query(dataset)
    assert warm["cache_hit"], warm
    assert warm["ids"] == first["ids"], warm

    inserted = client.insert(dataset, [0.001] * d)
    assert inserted["generation"] == 2, "mutation must bump generation"

    after = client.query(dataset)
    assert after["generation"] == 2, after
    assert not after["cache_hit"], "mutation must invalidate the cache"
    assert inserted["id"] in after["ids"], after

    return {"first": first, "warm": warm, "inserted": inserted, "after": after}


def run_ci_smoke(events_path: str = "serve-events.jsonl") -> None:
    """The CI serving-smoke job: scripted session + telemetry plane."""
    import json

    with spawn_server("--max-inflight", "4", "--events", events_path) as client:
        responses = scripted_session(client)

        stats = client.stats()
        assert stats["counters"]["serve.cache.hits"] >= 1, stats
        assert stats["counters"]["serve.cache.misses"] >= 2, stats
        # Non-zero serve.* series: the telemetry plane saw traffic.
        assert stats["counters"]["serve.requests"] >= 3, stats
        assert stats["counters"]["serve.computes"] >= 2, stats
        assert stats["latency"]["count"] >= 3, stats
        assert stats["datasets"]["qws"]["generation"] == 2, stats

        health = client.health()
        assert health["status"] == "healthy", health

        slo = client.slo()
        assert slo["state"] == "ok", slo
        names = [o["name"] for o in slo["objectives"]]
        assert names == ["availability", "latency"], slo
        five_m = slo["objectives"][0]["windows"]["5m"]
        assert five_m["total"] >= 3, slo

        events = client.events(50, kinds=["store.*"])
        assert events["count"] >= 2, events  # register + insert

        exposition = client.metrics(format="prometheus")["body"]
        assert "repro_serve_requests_total" in exposition

        assert client.shutdown()["bye"] is True
        assert responses["after"]["ids"], responses["after"]
    assert client.returncode == 0, client.returncode

    lines = Path(events_path).read_text().splitlines()
    kinds = {json.loads(line)["kind"] for line in lines}
    assert "store.generation" in kinds, kinds
    print("serving smoke OK: telemetry plane + event artifact verified")


def _four_kinds(dims: int) -> List[Dict[str, Any]]:
    """One ``query`` parameter set per query kind over ``dims`` columns."""
    return [
        {"kind": "skyline"},
        {"kind": "skyband", "k": 2},
        {"kind": "constrained", "lower": [0.0] * dims, "upper": [0.8] * dims},
        {"kind": "subspace", "dims": [0, 1]},
    ]


def _sigkill(client: ServingClient) -> None:
    """SIGKILL the served process: no handshake, no flush beyond fsync."""
    client._proc.kill()
    client._proc.wait(timeout=30)
    with suppress(OSError):  # a write the kill cut short may still be buffered
        client.close()


def run_durability_smoke(data_dir: str = "durability-data") -> None:
    """The CI durability-smoke job: two SIGKILL legs, each gated on parity.

    Both legs run ``repro serve`` over stdio and persist under
    ``data_dir``, so CI can upload the WAL/snapshot files as artifacts:

    1. **mid-mutation kill** — a background thread streams acknowledged
       inserts (``--fsync always``) and the server is SIGKILLed while
       that stream is in flight.  A restarted server must hold every
       acknowledged mutation: dataset size and generation must match
       the ack ledger exactly (± the single possibly-in-flight op), and
       all four query kinds must answer at the recovered generation.
    2. **kill past a checkpoint** — register, then 100 inserts and
       removes under ``--snapshot-every 64``, so recovery reads a snapshot
       plus a WAL tail.  Every query kind's answer is recorded before the
       SIGKILL; after the restart each must match id for id and generation
       for generation, and the restart must have replayed WAL records.
    """
    from repro.serving.client import ServingConnectionError

    dataset, n_bulk, dims = "smoke", 200, 3

    # Leg 1: SIGKILL while a mutation stream is mid-flight.
    kill_args = ("--data-dir", os.path.join(data_dir, "kill"), "--fsync", "always")
    client = spawn_server(*kill_args)
    acked: list = []
    stop = threading.Event()

    def mutate() -> None:
        i = 0
        try:
            while not stop.is_set():
                response = client.insert(dataset, [0.001 + i * 1e-6] * dims)
                if not response.get("ok"):
                    return
                acked.append((response["id"], response["generation"]))
                i += 1
        except ServingConnectionError:
            return  # the kill severed the pipe mid-op — expected

    thread = threading.Thread(target=mutate, daemon=True)
    try:
        loaded = client.register(
            dataset, generate={"n": n_bulk, "d": dims, "seed": 0}
        )
        assert loaded.get("ok"), loaded
        thread.start()
        deadline = time.monotonic() + 10.0
        while len(acked) < 20 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert thread.is_alive(), "mutation stream died before the kill"
        assert len(acked) >= 20, f"only {len(acked)} acknowledged mutations"
    finally:
        _sigkill(client)
    stop.set()
    thread.join(timeout=10)

    restarted = time.perf_counter()
    with spawn_server(*kill_args) as client:
        info = client.stats()["datasets"][dataset]
        recovery_time_s = time.perf_counter() - restarted
        # Every ack is durable; at most ONE op (sent, never acked)
        # may additionally have reached the log before the kill.
        assert info["size"] - n_bulk in (len(acked), len(acked) + 1), (
            f"{len(acked)} acks but {info['size'] - n_bulk} survivors"
        )
        assert info["generation"] == 1 + (info["size"] - n_bulk), info
        assert info["generation"] >= acked[-1][1], (info, acked[-1])
        for spec in _four_kinds(dims):
            answer = client.query(dataset, **spec)
            assert answer.get("ok"), answer
            assert answer["generation"] == info["generation"], answer
        assert client.shutdown()["bye"] is True
    assert client.returncode == 0, client.returncode
    print(
        f"mid-mutation kill OK: {len(acked)} acknowledged mutations "
        f"survived SIGKILL; first answer {recovery_time_s:.3f}s after restart"
    )

    # Leg 2: SIGKILL after a checkpoint, so recovery = snapshot + WAL tail.
    tail_args = (
        "--data-dir", os.path.join(data_dir, "checkpoint"),
        "--fsync", "always", "--snapshot-every", "64",
    )
    client = spawn_server(*tail_args)
    try:
        loaded = client.register(
            dataset, generate={"n": n_bulk, "d": dims, "seed": 1}
        )
        assert loaded.get("ok"), loaded
        rng = np.random.default_rng(2)
        for i in range(100):
            if i % 4 == 3:
                # Remove a skyline member, so a replay that drops or
                # misapplies a remove changes the answers compared below.
                victim = client.query(dataset)["ids"][0]
                response = client.remove(dataset, victim)
            else:
                response = client.insert(dataset, rng.random(dims) + 0.01)
            assert response.get("ok"), response
        before = [client.query(dataset, **s) for s in _four_kinds(dims)]
        assert all(answer.get("ok") for answer in before), before
    finally:
        _sigkill(client)

    with spawn_server(*tail_args) as client:
        for spec, old in zip(_four_kinds(dims), before):
            new = client.query(dataset, **spec)
            assert new.get("ok"), new
            assert new["ids"] == old["ids"], (spec["kind"], old, new)
            assert new["generation"] == old["generation"], (spec["kind"], new)
        counters = client.metrics()["metrics"]["counters"]
        replayed = counters.get("wal.records_replayed", 0)
        assert replayed > 0, "recovery must replay the WAL tail"
        assert client.shutdown()["bye"] is True
    assert client.returncode == 0, client.returncode
    print(
        "durability smoke OK: four-kind id/generation parity after SIGKILL "
        f"past a checkpoint ({replayed} WAL records replayed)"
    )
