"""Tests for dynamic (incremental) skyline maintenance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.incremental import IncrementalSkyline
from repro.core.partitioning import AngularPartitioner, GridPartitioner
from repro.core.skyline import skyline_numpy


def _fitted_partitioner(scale=10.0, partitions=4):
    seed = np.array([[0.01, 0.01], [scale, scale]])
    return AngularPartitioner(partitions, bins="equal-width").fit(seed)


class TestConstruction:
    def test_from_initial_points(self):
        pts = np.random.default_rng(0).random((50, 2)) + 0.01
        sky = IncrementalSkyline(AngularPartitioner(4), initial_points=pts)
        assert len(sky) == 50
        expected = skyline_numpy(pts)
        assert sky.global_skyline() == expected.tolist()

    def test_unfitted_without_points_rejected(self):
        with pytest.raises(ValueError):
            IncrementalSkyline(AngularPartitioner(4))

    def test_fitted_without_points_ok(self):
        sky = IncrementalSkyline(_fitted_partitioner())
        assert len(sky) == 0
        assert sky.global_skyline() == []


class TestInsert:
    def test_ids_sequential(self):
        sky = IncrementalSkyline(_fitted_partitioner())
        assert sky.insert([1.0, 2.0]) == 0
        assert sky.insert([2.0, 1.0]) == 1

    def test_dominated_insert_not_in_skyline(self):
        sky = IncrementalSkyline(_fitted_partitioner())
        sky.insert([1.0, 1.0])
        pid = sky.insert([2.0, 2.0])
        assert pid not in sky.global_skyline()
        assert pid in sky  # still stored as a member

    def test_dominating_insert_evicts(self):
        sky = IncrementalSkyline(_fitted_partitioner())
        old = sky.insert([2.0, 2.0])
        new = sky.insert([1.0, 1.0])
        assert sky.global_skyline() == [new]
        assert old in sky

    def test_incremental_matches_batch(self):
        rng = np.random.default_rng(1)
        pts = rng.random((200, 2)) + 0.01
        sky = IncrementalSkyline(_fitted_partitioner(scale=1.2))
        for row in pts:
            sky.insert(row)
        assert sky.global_skyline() == skyline_numpy(pts).tolist()

    def test_global_points_rows(self):
        sky = IncrementalSkyline(_fitted_partitioner())
        sky.insert([1.0, 3.0])
        sky.insert([3.0, 1.0])
        assert sky.global_skyline_points().shape == (2, 2)

    @given(st.lists(st.tuples(st.floats(0.01, 10), st.floats(0.01, 10)), max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_property_matches_batch(self, rows):
        sky = IncrementalSkyline(_fitted_partitioner())
        for row in rows:
            sky.insert(np.array(row))
        if rows:
            expected = skyline_numpy(np.array(rows)).tolist()
        else:
            expected = []
        assert sky.global_skyline() == expected


class TestRemove:
    def test_remove_skyline_point_resurfaces_dominated(self):
        sky = IncrementalSkyline(_fitted_partitioner())
        a = sky.insert([1.0, 1.0])
        b = sky.insert([2.0, 2.0])  # dominated by a
        sky.remove(a)
        assert sky.global_skyline() == [b]

    def test_remove_non_skyline_member(self):
        sky = IncrementalSkyline(_fitted_partitioner())
        a = sky.insert([1.0, 1.0])
        b = sky.insert([2.0, 2.0])
        sky.remove(b)
        assert sky.global_skyline() == [a]
        assert b not in sky

    def test_remove_unknown_raises(self):
        sky = IncrementalSkyline(_fitted_partitioner())
        with pytest.raises(KeyError):
            sky.remove(99)

    def test_remove_then_reinsert_gets_new_id(self):
        sky = IncrementalSkyline(_fitted_partitioner())
        a = sky.insert([1.0, 1.0])
        sky.remove(a)
        b = sky.insert([1.0, 1.0])
        assert b != a

    def test_churn_matches_batch(self):
        rng = np.random.default_rng(2)
        pts = rng.random((120, 2)) + 0.01
        sky = IncrementalSkyline(_fitted_partitioner(scale=1.2))
        ids = [sky.insert(row) for row in pts]
        removed = set(rng.choice(120, size=40, replace=False).tolist())
        for i in removed:
            sky.remove(ids[i])
        survivors = np.array(
            [pts[i] for i in range(120) if i not in removed]
        )
        expected = {
            ids[i]
            for i in np.flatnonzero(~np.isin(np.arange(120), list(removed)))[
                skyline_numpy(survivors)
            ]
        }
        assert set(sky.global_skyline()) == expected


class TestPartitionLocality:
    def test_local_skyline_query(self):
        pts = np.random.default_rng(3).random((100, 2)) + 0.01
        partitioner = _fitted_partitioner(scale=1.2)
        sky = IncrementalSkyline(partitioner, initial_points=pts)
        for pid in range(partitioner.num_partitions):
            local = sky.local_skyline(pid)
            for point_id in local:
                row = sky.point(point_id)
                assert partitioner.assign(row.reshape(1, -1))[0] == pid

    def test_insert_touches_only_own_partition(self):
        partitioner = _fitted_partitioner(scale=10.0)
        sky = IncrementalSkyline(partitioner)
        a = sky.insert([5.0, 0.5])  # near x-axis sector
        before = {
            pid: sky.local_skyline(pid) for pid in range(partitioner.num_partitions)
        }
        b = sky.insert([0.5, 5.0])  # near y-axis sector, different partition
        pid_b = partitioner.assign(np.array([[0.5, 5.0]]))[0]
        for pid, local in before.items():
            if pid != pid_b:
                assert sky.local_skyline(pid) == local

    def test_works_with_grid_partitioner(self):
        pts = np.random.default_rng(4).random((150, 3))
        grid = GridPartitioner(8).fit(pts)
        sky = IncrementalSkyline(grid, initial_points=pts)
        assert sky.global_skyline() == skyline_numpy(pts).tolist()


def _capacity(sky):
    return sky._rows.shape[0]


class TestColumnarStorage:
    def test_storage_stays_proportional_to_live_members_under_churn(self):
        rng = np.random.default_rng(5)
        sky = IncrementalSkyline(_fitted_partitioner(scale=1.2))
        live = []
        for _ in range(6):
            live += [sky.insert(row) for row in rng.random((300, 2)) + 0.01]
            for victim in live[:-20]:
                sky.remove(victim)
            live = live[-20:]
            assert len(sky) == 20
            # Compaction bounds the slots by the live count, not by the
            # 1,800 ids ever issued.
            assert _capacity(sky) <= 4 * len(sky)
            assert sky._size <= 2 * len(sky)
        ids, rows = sky.members()
        assert ids.tolist() == sorted(live)
        assert sky.next_id == 1800
        assert sky.global_skyline() == sorted(
            ids[j] for j in skyline_numpy(rows)
        )

    def test_removing_everything_shrinks_to_the_minimum(self):
        sky = IncrementalSkyline(_fitted_partitioner())
        ids = sky.bulk_load(np.random.default_rng(6).random((500, 2)) + 0.01)
        for point_id in ids:
            sky.remove(point_id)
        assert len(sky) == 0
        assert _capacity(sky) <= 16
        assert sky.global_skyline() == []
        assert sky.members()[1].shape == (0, 0)
        assert sky.insert([1.0, 1.0]) == 500

    def test_members_returns_copies(self):
        pts = np.random.default_rng(7).random((40, 2)) + 0.01
        sky = IncrementalSkyline(_fitted_partitioner(), initial_points=pts)
        before = sky.global_skyline()
        ids, rows = sky.members()
        rows[:] = 100.0
        ids[:] = -1
        again_ids, again_rows = sky.members()
        assert again_ids.tolist() == list(range(40))
        assert np.array_equal(again_rows, pts)
        assert sky.global_skyline() == before
        assert np.array_equal(sky.point(3), pts[3])

    def test_initial_points_match_repeated_inserts(self):
        pts = np.random.default_rng(8).random((120, 3)) + 0.01
        seeded = IncrementalSkyline(AngularPartitioner(4), initial_points=pts)
        serial = IncrementalSkyline(AngularPartitioner(4).fit(pts))
        ids = [serial.insert(row) for row in pts]
        assert ids == list(range(120))
        assert seeded.next_id == serial.next_id == 120
        assert seeded.global_skyline() == serial.global_skyline()
        assert seeded.partition_sizes() == serial.partition_sizes()
        for pid in range(4):
            assert seeded.local_skyline(pid) == serial.local_skyline(pid)


class TestFromMembers:
    def test_sparse_unsorted_ids_and_next_id_are_honoured(self):
        rng = np.random.default_rng(9)
        rows = rng.random((30, 3)) + 0.01
        ids = rng.choice(1000, size=30, replace=False)
        sky = IncrementalSkyline.from_members(
            AngularPartitioner(4), ids.tolist(), rows, next_id=5000
        )
        order = np.argsort(ids)
        got_ids, got_rows = sky.members()
        assert got_ids.tolist() == sorted(ids.tolist())
        assert np.array_equal(got_rows, rows[order])
        assert sky.global_skyline() == sorted(
            int(ids[j]) for j in skyline_numpy(rows)
        )
        assert int(ids[0]) in sky and 1001 not in sky
        assert np.array_equal(sky.point(int(ids[0])), rows[0])
        assert sky.insert([0.001, 0.001, 0.001]) == 5000
        sky.remove(int(ids[0]))
        assert int(ids[0]) not in sky
        assert sky.global_skyline() == [5000]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            IncrementalSkyline.from_members(
                _fitted_partitioner(), [3, 3], np.ones((2, 2)), next_id=4
            )

    def test_next_id_must_pass_every_live_id(self):
        with pytest.raises(ValueError, match="re-issue"):
            IncrementalSkyline.from_members(
                _fitted_partitioner(), [7, 2], np.ones((2, 2)), next_id=7
            )
