"""Bulk mutation of IncrementalSkyline, plus the remove-invalidation
regression the serving layer depends on."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.incremental import IncrementalSkyline
from repro.core.partitioning import AngularPartitioner
from repro.core.skyline import skyline_numpy


def _fitted_partitioner(partitions=4, d=2, scale=10.0):
    seed = np.vstack([np.full(d, 0.01), np.full(d, scale)])
    return AngularPartitioner(partitions, bins="equal-width").fit(seed)


def _points(n=200, d=3, seed=0):
    return np.random.default_rng(seed).random((n, d)) + 0.01


class TestBulkLoad:
    def test_matches_repeated_insert(self):
        pts = _points(150, 3, seed=4)
        serial = IncrementalSkyline(_fitted_partitioner(d=3))
        batched = IncrementalSkyline(_fitted_partitioner(d=3))
        for row in pts:
            serial.insert(row)
        ids = batched.bulk_load(pts)
        assert ids == list(range(150))
        assert batched.global_skyline() == serial.global_skyline()

    def test_bulk_onto_existing_members(self):
        first, second = _points(80, 2, seed=1)[:, :2], _points(80, 2, seed=2)[:, :2]
        sky = IncrementalSkyline(_fitted_partitioner())
        sky.bulk_load(first)
        sky.bulk_load(second)
        both = np.vstack([first, second])
        assert sky.global_skyline() == skyline_numpy(both).tolist()

    def test_empty_batch_is_a_no_op(self):
        sky = IncrementalSkyline(_fitted_partitioner())
        assert sky.bulk_load(np.empty((0, 2))) == []
        assert len(sky) == 0


class TestRemoveInvalidation:
    """Removing a member must invalidate the lazy global cache — even a
    member that was never on its partition's local skyline.

    The old skip was provably answer-preserving (dominance transitivity),
    but the serving layer treats the cached array as derived from the
    current membership; these tests pin the stronger invariant.
    """

    def test_cache_dropped_for_non_skyline_member(self):
        sky = IncrementalSkyline(_fitted_partitioner())
        keeper = sky.insert([1.0, 1.0])
        victim = sky.insert([2.0, 2.0])  # dominated: member, never skyline
        assert sky.global_skyline() == [keeper]
        assert sky._global_cache is not None  # lazy merge is now cached
        sky.remove(victim)
        assert sky._global_cache is None, (
            "remove() must invalidate the cache unconditionally"
        )
        assert sky.global_skyline() == [keeper]

    def test_answers_stay_correct_across_non_skyline_removals(self):
        rng = np.random.default_rng(11)
        pts = rng.random((120, 3)) + 0.01
        sky = IncrementalSkyline(_fitted_partitioner(d=3), initial_points=pts)
        model = {i: pts[i] for i in range(120)}
        for _ in range(60):
            current = set(sky.global_skyline())
            off_skyline = [i for i in model if i not in current]
            pool = off_skyline if (off_skyline and rng.random() < 0.7) else list(model)
            victim = int(pool[rng.integers(len(pool))])
            sky.remove(victim)
            del model[victim]
            ids = sorted(model)
            expected = (
                sorted(ids[j] for j in skyline_numpy(np.vstack(
                    [model[i] for i in ids]
                )))
                if ids else []
            )
            assert sky.global_skyline() == expected


coords2 = st.tuples(
    st.floats(0.01, 10.0, allow_nan=False),
    st.floats(0.01, 10.0, allow_nan=False),
)


@settings(max_examples=30, deadline=None)
@given(
    batches=st.lists(
        st.lists(coords2, min_size=0, max_size=12), min_size=1, max_size=4
    )
)
def test_bulk_load_property_matches_bruteforce(batches):
    sky = IncrementalSkyline(_fitted_partitioner())
    model = []
    for batch in batches:
        sky.bulk_load(np.array(batch, dtype=float).reshape(len(batch), 2))
        model.extend(batch)
        if not model:
            assert sky.global_skyline() == []
            continue
        rows = np.array(model, dtype=float)
        assert sky.global_skyline() == sorted(
            int(i) for i in skyline_numpy(rows)
        )
