"""Tests for the experiment harness (dataset cache, point runs, sweeps)."""

import pytest

from repro.bench.harness import DatasetCache, PointRecord, run_point, sweep
from repro.mapreduce.cluster import ClusterSpec

QUICK = ClusterSpec(num_nodes=2, speed_factor=1.0)


@pytest.fixture(scope="module")
def cache():
    return DatasetCache()


class TestDatasetCache:
    def test_matrix_shape(self, cache):
        m = cache.matrix(500, 4)
        assert m.shape == (500, 4)

    def test_cached_identity(self, cache):
        assert cache.matrix(500, 4) is cache.matrix(500, 4)

    def test_subsample_below_base(self, cache):
        assert len(cache.dataset(200)) == 200

    def test_extension_above_base(self, cache):
        ds = cache.dataset(12_000)
        assert len(ds) == 12_000

    def test_small_is_subset_of_base(self, cache):
        small = cache.dataset(300)
        base = cache.dataset(10_000)
        base_rows = {tuple(r) for r in base.raw}
        assert all(tuple(r) in base_rows for r in small.raw[:20])

    def test_clear(self):
        c = DatasetCache()
        m = c.matrix(100, 2)
        c.clear()
        assert c.matrix(100, 2) is not m


class TestRunPoint:
    def test_record_fields(self, cache):
        rec = run_point("angle", 400, 3, cluster=QUICK, cache=cache)
        assert isinstance(rec, PointRecord)
        assert rec.method == "angle"
        assert rec.n == 400 and rec.d == 3
        assert rec.workers == 2
        assert rec.partitions == 4
        assert rec.sim_total_s > 0
        assert rec.sim_total_s == pytest.approx(rec.sim_map_s + rec.sim_reduce_s)
        assert rec.global_skyline > 0
        assert 0 <= rec.optimality <= 1

    def test_methods_share_global_skyline_size(self, cache):
        sizes = {
            run_point(m, 400, 3, cluster=QUICK, cache=cache).global_skyline
            for m in ("dim", "grid", "angle")
        }
        assert len(sizes) == 1

    def test_mr_kwargs_forwarded(self, cache):
        rec = run_point(
            "angle", 400, 3, cluster=QUICK, cache=cache, num_partitions=2
        )
        assert rec.partitions == 2


class TestSweep:
    def test_cross_product(self, cache):
        records = sweep(("dim", "angle"), 300, (2, 3), cluster=QUICK, cache=cache)
        assert len(records) == 4
        assert {(r.method, r.d) for r in records} == {
            ("dim", 2),
            ("dim", 3),
            ("angle", 2),
            ("angle", 3),
        }
