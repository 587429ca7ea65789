"""Differential suite: the cluster must equal a single-node service.

One :class:`LocalCluster` of three real TCP shard servers behind a
coordinator front end (a :class:`ShardedBackend`), versus one in-process
:class:`SkylineService` over the same mutation history.  Because the
coordinator replicates the single-node id discipline (arrival order,
never reused), every query kind must return *identical raw id lists* —
not just equal sets — for every shard function and both dominance
kernels.
"""

import numpy as np
import pytest

from repro.data.generators import correlated
from repro.observability.metrics import get_metrics
from repro.serving.cluster import SHARD_FUNCTIONS, LocalCluster, ShardedBackend
from repro.serving.queries import QuerySpec
from repro.serving.service import ServeConfig, SkylineService

SHARDS = 3


def _points(n=120, d=3, seed=3):
    return np.random.default_rng(seed).random((n, d)) + 0.01


def _specs(d):
    return [
        QuerySpec(dataset="diff", kind="skyline"),
        QuerySpec(dataset="diff", kind="skyband", k=2),
        QuerySpec(
            dataset="diff",
            kind="constrained",
            lower=(0.0,) * d,
            upper=(0.7,) * d,
        ),
        QuerySpec(dataset="diff", kind="subspace", dims=(0, d - 1)),
    ]


@pytest.fixture(scope="module")
def cluster():
    with LocalCluster(SHARDS) as fleet:
        yield fleet


def _assert_parity(coordinator, single, specs):
    for spec in specs:
        expected = single.query(spec)
        actual = coordinator.query(spec)
        assert actual.status in ("ok",), (spec.kind, actual.status)
        assert not actual.degraded, spec.kind
        assert actual.ids == list(expected.ids), (
            f"{spec.kind}: cluster {actual.ids} != single {list(expected.ids)}"
        )


@pytest.mark.parametrize("kernel", ["scalar", "block"])
@pytest.mark.parametrize("shard_fn", list(SHARD_FUNCTIONS))
def test_all_kinds_match_single_node(cluster, shard_fn, kernel):
    points = _points()
    d = points.shape[1]
    single = SkylineService()
    single.register("diff", points)
    with SkylineService(
        ServeConfig(kernel=kernel), backend=ShardedBackend(cluster.addresses())
    ) as coordinator:
        dataset = f"diff-{shard_fn}-{kernel}"
        # Same dataset name on both sides keeps the specs shared.
        gvec = coordinator.register("diff", points, shard_fn=shard_fn)
        assert len(gvec) == SHARDS
        _assert_parity(coordinator, single, _specs(d))

        # Mutations: inserts and removes must keep exact id parity.
        rng = np.random.default_rng(hash(dataset) % 2**32)
        for step in range(6):
            row = rng.random(d) * (0.2 if step % 2 else 1.0) + 0.001
            gid, gvec_after = coordinator.insert("diff", row)
            sid, _ = single.insert("diff", row)
            assert gid == sid, "global ids must track single-node ids"
            assert sum(gvec_after) > sum(gvec), "writes must advance the vector"
            gvec = gvec_after
        removed = coordinator.query(QuerySpec(dataset="diff")).ids[0]
        coordinator.remove("diff", removed)
        single.remove("diff", removed)
        _assert_parity(coordinator, single, _specs(d))


def test_single_shard_placement_matches(cluster):
    points = _points(60, 2, seed=9)
    single = SkylineService()
    single.register("diff", points)
    with SkylineService(backend=ShardedBackend(cluster.addresses())) as coordinator:
        coordinator.register("diff", points)  # no shard_fn: one shard
        _assert_parity(coordinator, single, _specs(2))


def test_cache_hits_at_stable_generation_vector(cluster):
    with SkylineService(backend=ShardedBackend(cluster.addresses())) as coordinator:
        coordinator.register("diff", _points(80, 3), shard_fn="angle")
        spec = QuerySpec(dataset="diff")
        cold = coordinator.query(spec)
        warm = coordinator.query(spec)
        assert not cold.cache_hit and warm.cache_hit
        assert warm.ids == cold.ids
        assert warm.generations == cold.generations

        coordinator.insert("diff", [0.001, 0.001, 0.001])
        invalidated = coordinator.query(spec)
        assert not invalidated.cache_hit, "a write must invalidate the key"


def _wire_counters():
    counters = get_metrics().snapshot()["counters"]
    return {
        name: counters.get(f"serve.cluster.{name}", 0)
        for name in ("points_held", "candidates_received", "filter_pruned")
    }


def _assert_wire_pruned(cluster, dataset, points, specs):
    """Communication efficiency: shards send fewer rows than they hold."""
    with SkylineService(backend=ShardedBackend(cluster.addresses())) as coordinator:
        coordinator.register(dataset, points, shard_fn="angle")
        # The counters are process-global: count only these queries.
        before = _wire_counters()
        for spec in specs:
            coordinator.query(spec)
        after = _wire_counters()
    delta = {name: after[name] - before[name] for name in after}
    # Every query scanned every shard.
    assert delta["points_held"] == len(specs) * len(points), delta
    assert delta["candidates_received"] < delta["points_held"], (
        "filter broadcast must prune the wire", delta,
    )
    assert delta["filter_pruned"] > 0, delta


def test_candidates_cross_the_wire_pruned(cluster):
    _assert_wire_pruned(cluster, "diff", _points(300, 3, seed=1), [
        QuerySpec(dataset="diff"),  # seeds the filters
        QuerySpec(dataset="diff", kind="skyband", k=2),
    ])


def test_candidates_cross_the_wire_pruned_correlated(cluster):
    """The cluster-smoke CI gate's workload: correlated 8k x 4, where the
    broadcast filters dominate nearly every row before it is sent."""
    _assert_wire_pruned(cluster, "corr", correlated(8_000, 4, seed=7), [
        QuerySpec(dataset="corr"),
        QuerySpec(
            dataset="corr", kind="constrained", lower=(0.0,) * 4,
            upper=(0.6,) * 4,
        ),
    ])
