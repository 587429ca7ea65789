"""SkylineStore: generation counting, snapshots and bulk loads."""

import numpy as np
import pytest

from repro.core.skyline import skyline
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


class TestBulkLoadKeepsLocalSkylines:
    def test_skyline_member_removals_on_a_large_block_load(self):
        # A bulk load must flag every local-skyline member of its
        # partition, not only the rows that survive global-skyline
        # pruning: a row dominated only by a removed skyline member
        # belongs on the skyline afterwards.  50,000 rows under the block
        # kernel is the load `repro serve` once seeded from a pruned
        # MapReduce job, which lost such rows.
        rows = np.random.default_rng(3).random((50_000, 3))
        store = SkylineStore("x", rows, kernel="block")
        live = np.ones(rows.shape[0], dtype=bool)
        rng = np.random.default_rng(0)
        for step in range(30):
            _, current = store.skyline_snapshot()
            victim = current[rng.integers(len(current))]
            store.remove(victim)
            live[victim] = False
            live_ids = np.flatnonzero(live)
            expected = live_ids[skyline(rows[live_ids], kernel="block")].tolist()
            assert store.skyline_snapshot()[1] == expected, f"removal {step}"
        # A later batch merges in and continues the id sequence.
        extra = np.random.default_rng(4).random((1_000, 3))
        new_ids, generation = store.bulk_load(extra)
        assert new_ids == list(range(50_000, 51_000))
        assert generation == 32
        ids = np.concatenate([live_ids, new_ids])
        merged = np.vstack([rows[live_ids], extra])
        assert store.skyline_snapshot()[1] == ids[skyline(merged, kernel="block")].tolist()
