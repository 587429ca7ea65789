"""SkylineStore: generation counting, snapshots, and the MR bulk path."""

import numpy as np
import pytest

from repro.core.skyline import skyline_numpy
from repro.serving.queries import QuerySpec, evaluate
from repro.serving.store import SkylineStore


def _points(n=120, d=3, seed=0):
    return np.random.default_rng(seed).random((n, d)) + 0.01


class TestGenerations:
    def test_empty_store_is_generation_zero(self):
        store = SkylineStore("qws")
        assert store.generation == 0
        assert len(store) == 0
        assert store.skyline_snapshot() == (0, [])

    def test_initial_load_is_one_generation(self):
        store = SkylineStore("qws", _points())
        assert store.generation == 1
        assert len(store) == 120

    def test_every_mutation_bumps(self):
        store = SkylineStore("qws", _points())
        pid, gen = store.insert([0.5, 0.5, 0.5])
        assert gen == 2
        assert store.remove(pid) == 3
        _, gen = store.bulk_load(_points(10, seed=1))
        assert gen == 4

    def test_remove_on_empty_store_rejected(self):
        with pytest.raises(KeyError):
            SkylineStore("qws").remove(0)

    def test_contains_tracks_membership(self):
        store = SkylineStore("qws", _points(5))
        assert 0 in store and 4 in store
        store.remove(2)
        assert 2 not in store


class TestSnapshots:
    def test_snapshot_is_isolated_from_later_mutations(self):
        store = SkylineStore("qws", _points())
        snap = store.snapshot()
        store.insert([0.001, 0.001, 0.001])
        store.remove(0)
        assert snap.generation == 1
        assert snap.ids.shape[0] == 120
        assert snap.rows.shape == (120, 3)
        assert 0 in snap.ids.tolist()

    def test_skyline_snapshot_matches_from_scratch(self):
        store = SkylineStore("qws", _points())
        store.insert([0.02, 0.02, 0.02])
        store.remove(3)
        gen, ids = store.skyline_snapshot()
        snap = store.snapshot()
        assert gen == snap.generation == 3
        assert ids == evaluate(QuerySpec(dataset="qws"), snap.ids, snap.rows)

    def test_empty_snapshot_shapes(self):
        snap = SkylineStore("qws").snapshot()
        assert snap.ids.shape == (0,)
        assert snap.rows.shape[0] == 0

    def test_rows_of_joins_ids_in_request_order(self):
        pts = _points(50)
        store = SkylineStore("qws", pts)
        for victim in (3, 10, 11):
            store.remove(victim)
        snap = store.snapshot()
        assert snap.ids.tolist() == sorted(snap.ids.tolist())
        assert np.array_equal(snap.rows_of([49, 0, 12]), pts[[49, 0, 12]])
        assert snap.rows_of([]).shape == (0, 3)
        for missing in (10, 50, -1):
            with pytest.raises(KeyError, match=f"point id {missing} not in"):
                snap.rows_of([0, missing])


class TestMrBulkPath:
    @pytest.mark.parametrize("executor", ["serial", "threads"])
    def test_mr_seed_matches_in_core_path(self, executor):
        pts = _points(400, 3, seed=5)
        mr = SkylineStore(
            "mr", pts, mr_bulk_threshold=100, executor=executor
        )
        core = SkylineStore("core", pts, mr_bulk_threshold=10**9)
        assert len(mr) == len(core) == 400
        assert mr.skyline_snapshot()[1] == core.skyline_snapshot()[1]
        expected = skyline_numpy(pts).tolist()
        assert mr.skyline_snapshot()[1] == expected

    def test_mr_seeded_store_stays_mutable(self):
        pts = _points(300, 3, seed=6)
        store = SkylineStore("mr", pts, mr_bulk_threshold=100)
        pid, _ = store.insert([0.001, 0.001, 0.001])
        _, ids = store.skyline_snapshot()
        assert ids == [pid]
        store.remove(pid)
        assert store.skyline_snapshot()[1] == skyline_numpy(pts).tolist()

    def test_second_bulk_load_uses_in_core_path(self):
        # The MR seed only applies to a cold store; later batches merge in.
        store = SkylineStore("mr", _points(200, 3), mr_bulk_threshold=100)
        new_ids, gen = store.bulk_load(_points(200, 3, seed=9))
        assert gen == 2
        assert new_ids == list(range(200, 400))
        snap = store.snapshot()
        assert store.skyline_snapshot()[1] == evaluate(
            QuerySpec(dataset="mr"), snap.ids, snap.rows
        )
