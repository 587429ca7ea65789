"""In-process shard fleet: N real TCP shard servers in one process.

``repro serve --cluster N`` and the cluster test suites need a topology
without provisioning machines: a :class:`LocalCluster` boots N fully
independent single-node :class:`~repro.serving.service.SkylineService`
instances, each behind its own TCP server on a loopback port, and the
coordinator's sharded backend talks to them over real sockets — the exact
wire path a distributed deployment uses.

Chaos hook: :meth:`LocalCluster.kill` stops a shard's accept loop *and*
severs its established connections (a plain ``server_close`` would leave
the coordinator's pooled connections alive and the "crash" unobservable),
which is what the chaos leg of the differential suite relies on.
"""

from __future__ import annotations

import os
import socket
import threading
from typing import Any, Dict, List

from repro.serving.server import ServingTCPServer
from repro.serving.service import LocalBackend, ServeConfig, SkylineService

__all__ = ["LocalCluster"]


class _TrackingTCPServer(ServingTCPServer):
    """A :class:`ServingTCPServer` that can sever live connections."""

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self._conn_lock = threading.Lock()
        self._conns: "set[socket.socket]" = set()

    def process_request(self, request: Any, client_address: Any) -> None:
        with self._conn_lock:
            self._conns.add(request)
        super().process_request(request, client_address)

    def close_connections(self) -> None:
        with self._conn_lock:
            conns = list(self._conns)
            self._conns.clear()
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already torn down by the session thread
            try:
                conn.close()
            except OSError:
                pass  # double close is the expected teardown race


class LocalCluster:
    """N in-process shard servers on loopback ports.

    With ``data_dir`` set, every shard writes its datasets through a
    per-shard durability plane (``data_dir/shard-NN``):
    :meth:`restart` then brings a killed shard back *on its old port*
    with its state recovered from disk, which is the fixture the
    shard-restart continuity suite drives — the coordinator's pooled
    endpoints redial the same address and the recovered shard answers at
    its pre-crash generations, so the generation vector never regresses.
    """

    def __init__(
        self,
        num_shards: int,
        *,
        config: ServeConfig | None = None,
        data_dir: str | None = None,
        fsync: str = "interval",
        snapshot_every: int = 256,
    ):
        if num_shards < 1:
            raise ValueError(f"need at least one shard, got {num_shards}")
        self.services: List[SkylineService] = []
        self.servers: List[_TrackingTCPServer | None] = []
        self._threads: List[threading.Thread] = []
        self._dead: Dict[int, str] = {}
        self._config = config
        self._data_dir = data_dir
        self._fsync = fsync
        self._snapshot_every = snapshot_every
        for i in range(num_shards):
            service = self._make_service(i)
            server = _TrackingTCPServer(("127.0.0.1", 0), service)
            thread = threading.Thread(
                target=server.serve_forever,
                name=f"local-shard-{i}",
                daemon=True,
            )
            thread.start()
            self.services.append(service)
            self.servers.append(server)
            self._threads.append(thread)

    def _make_service(self, index: int) -> SkylineService:
        """One shard's service, with its durability plane when configured;
        recovery runs before the shard takes its first request."""
        durability = None
        if self._data_dir is not None:
            from repro.serving.durability import DurabilityConfig, DurabilityManager

            durability = DurabilityManager(
                DurabilityConfig(
                    os.path.join(self._data_dir, f"shard-{index:02d}"),
                    fsync=self._fsync,
                    snapshot_every=self._snapshot_every,
                )
            )
        backend = LocalBackend(durability=durability)
        service = SkylineService(self._config, backend=backend)
        backend.recover_datasets()
        return service

    @property
    def num_shards(self) -> int:
        return len(self.services)

    def addresses(self) -> List[str]:
        """``host:port`` per live shard (killed shards keep their slot —
        the coordinator must see the address and fail to reach it)."""
        out: List[str] = []
        for i, server in enumerate(self.servers):
            if server is None:
                out.append(self._dead[i])
            else:
                host, port = server.server_address[:2]
                out.append(f"{host}:{port}")
        return out

    def kill(self, index: int) -> None:
        """Crash one shard: stop accepting and sever live connections.

        The shard's durability files are left exactly as the "crash"
        found them (every WAL append is already flushed per its fsync
        policy); the open handles are released so :meth:`restart` can
        reopen the same files.  Torn-tail chaos is injected by tests at
        the file level, not here.
        """
        server = self.servers[index]
        if server is None:
            return
        host, port = server.server_address[:2]
        self._dead[index] = f"{host}:{port}"
        self.servers[index] = None
        server.shutdown()
        server.close_connections()
        server.server_close()
        backend = self.services[index].backend
        assert isinstance(backend, LocalBackend)
        if backend.durability is not None:
            backend.durability.close()

    def restart(self, index: int) -> str:
        """Bring a killed shard back on its old address, state recovered
        from its ``data_dir`` (an empty shard without one); returns the
        ``host:port`` it rebound."""
        if self.servers[index] is not None:
            raise ValueError(f"shard {index} is still running")
        address = self._dead.pop(index)
        host, _, port = address.rpartition(":")
        service = self._make_service(index)
        server = _TrackingTCPServer((host, int(port)), service)
        thread = threading.Thread(
            target=server.serve_forever,
            name=f"local-shard-{index}",
            daemon=True,
        )
        thread.start()
        self.services[index] = service
        self.servers[index] = server
        self._threads[index] = thread
        return address

    def close(self) -> None:
        for i in range(len(self.servers)):
            self.kill(i)

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
