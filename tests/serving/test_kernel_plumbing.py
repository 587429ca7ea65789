"""Every served compute path runs on the dataset's (or coordinator's) kernel.

A spy on :meth:`BlockKernel.sweep_sorted` — the sweep behind every
block-kernel skyline and k-skyband — shows which query kinds reach the
block kernel; the scalar path never calls it.  The CLI tests pin the
servers' ``block`` default and the ways to ask for ``scalar``.
"""

import socket

import numpy as np
import pytest

from repro.core.kernels import ENV_KERNEL, BlockKernel, default_kernel_name
from repro.serving.cluster import LocalCluster, ShardedBackend
from repro.serving.cluster.merge import merge_candidates
from repro.serving.queries import QuerySpec, evaluate
from repro.serving.service import ServeConfig, SkylineService

from tests.serving.harness import spawn_server, subprocess_env, tcp_server

D = 3


def _points(n=150, seed=21):
    return np.random.default_rng(seed).random((n, D)) + 0.01


def _specs(dataset="plumb"):
    return [
        QuerySpec(dataset=dataset, kind="skyband", k=2),
        QuerySpec(
            dataset=dataset, kind="constrained", lower=(0.0,) * D, upper=(0.8,) * D
        ),
        QuerySpec(dataset=dataset, kind="subspace", dims=(0, 2)),
    ]


@pytest.fixture
def block_sweeps(monkeypatch):
    """Records the ``k`` of every block-kernel sweep."""
    calls = []
    original = BlockKernel.sweep_sorted

    def spy(self, rows, *, k=1, **kwargs):
        calls.append(k)
        return original(self, rows, k=k, **kwargs)

    monkeypatch.setattr(BlockKernel, "sweep_sorted", spy)
    return calls


class TestServiceKernel:
    @pytest.mark.parametrize("spec", _specs(), ids=lambda s: s.kind)
    def test_block_config_computes_on_block(self, spec, block_sweeps):
        service = SkylineService(ServeConfig(kernel="block"))
        service.register("plumb", _points())
        block_sweeps.clear()
        response = service.query(spec)
        assert not response.cache_hit
        assert block_sweeps, spec.kind
        if spec.kind == "skyband":
            assert block_sweeps == [2]
        rows = _points()
        assert list(response.ids) == evaluate(
            spec, np.arange(rows.shape[0]), rows
        )

    @pytest.mark.parametrize("spec", _specs(), ids=lambda s: s.kind)
    def test_scalar_config_never_touches_block(self, spec, block_sweeps):
        service = SkylineService(ServeConfig(kernel="scalar"))
        service.register("plumb", _points())
        service.query(spec)
        assert block_sweeps == []

    def test_shard_fallback_evaluate_uses_the_store_kernel(self, block_sweeps):
        service = SkylineService(ServeConfig(kernel="block"))
        service.register("plumb", _points())
        spec = _specs()[0]
        block_sweeps.clear()
        answer = service.shard_candidates(spec)
        assert block_sweeps == [2]
        assert answer["ids"] == service.query(spec).ids


class TestMergeKernel:
    def _answers(self):
        rows = _points(90)
        return [(list(range(0, 45)), rows[:45]), (list(range(45, 90)), rows[45:])]

    @pytest.mark.parametrize("spec", _specs(), ids=lambda s: s.kind)
    def test_merge_uses_the_given_kernel(self, spec, block_sweeps):
        scalar_ids, _ = merge_candidates(spec, self._answers(), kernel="scalar")
        assert block_sweeps == []
        block_ids, rows = merge_candidates(spec, self._answers(), kernel="block")
        assert block_sweeps
        assert block_ids == scalar_ids
        assert rows.shape == (len(block_ids), D)

    def test_coordinator_merges_on_its_kernel(self, block_sweeps):
        # Scalar shards and no filter broadcast: every block sweep below
        # is the coordinator's merge.
        with LocalCluster(2, config=ServeConfig(kernel="scalar")) as fleet:
            backend = ShardedBackend(fleet.addresses(), filter_k=0)
            with SkylineService(
                ServeConfig(kernel="block"), backend=backend
            ) as coordinator:
                coordinator.register("plumb", _points())
                single = SkylineService(ServeConfig(kernel="scalar"))
                single.register("plumb", _points())
                for spec in _specs():
                    block_sweeps.clear()
                    response = coordinator.query(spec)
                    assert response.ids == list(single.query(spec).ids), spec.kind
                    assert block_sweeps, spec.kind


class TestServeDefaultKernel:
    def _kernel_of(self, *args, **env):
        child_env = subprocess_env(**env)
        if not env:
            child_env.pop(ENV_KERNEL, None)
        with spawn_server(*args, env=child_env) as client:
            kernel = client.stats()["kernel"]
            assert client.shutdown()["ok"]
        return kernel

    def test_no_flag_serves_block(self):
        assert self._kernel_of() == "block"

    def test_no_flag_cluster_serves_block(self):
        assert self._kernel_of("--cluster", "2") == "block"

    def test_flag_selects_scalar(self):
        assert self._kernel_of("--kernel", "scalar") == "scalar"

    def test_env_selects_scalar(self):
        assert self._kernel_of(**{ENV_KERNEL: "scalar"}) == "scalar"

    def test_library_default_stays_scalar(self, monkeypatch):
        from repro.cli import _serving_kernel

        monkeypatch.delenv(ENV_KERNEL, raising=False)
        assert _serving_kernel(None) == "block"
        assert _serving_kernel("scalar") == "scalar"
        assert default_kernel_name() == "scalar"
        assert ServeConfig().kernel is None
        assert SkylineService().stats()["kernel"] == "scalar"


def test_accepted_connections_set_tcp_nodelay(monkeypatch):
    from repro.serving import server as server_mod

    seen = []
    original = server_mod._SessionHandler.handle

    def handle(self):
        seen.append(
            self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        )
        original(self)

    monkeypatch.setattr(server_mod._SessionHandler, "handle", handle)
    with tcp_server(SkylineService()) as (host, port):
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(b'{"op": "ping"}\n')
            assert b"pong" in sock.makefile("rb").readline()
    assert seen and all(seen)
