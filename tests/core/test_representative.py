"""Tests for representative-skyline selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.representative import (
    distance_representatives,
    max_dominance_representatives,
)
from repro.core.skyline import skyline_numpy

clouds = arrays(
    np.float64,
    st.tuples(st.integers(2, 60), st.integers(2, 4)),
    elements=st.floats(0, 20, allow_nan=False),
)


@pytest.fixture(scope="module")
def cloud():
    return np.random.default_rng(0).random((1500, 3))


class TestMaxDominance:
    def test_representatives_are_skyline_points(self, cloud):
        sky = set(skyline_numpy(cloud).tolist())
        result = max_dominance_representatives(cloud, 5)
        assert set(result.indices.tolist()) <= sky
        assert len(result) == 5

    def test_k_one_picks_max_dominator(self, cloud):
        result = max_dominance_representatives(cloud, 1)
        # The single pick must dominate at least as much as any other
        # skyline point.
        sky = skyline_numpy(cloud)
        best = result.indices[0]

        def coverage(i):
            le = (cloud[i] <= cloud).all(axis=1)
            lt = (cloud[i] < cloud).any(axis=1)
            return int((le & lt).sum())

        assert coverage(best) == max(coverage(i) for i in sky)
        assert result.score == coverage(best)

    def test_coverage_monotone_in_k(self, cloud):
        scores = [
            max_dominance_representatives(cloud, k).score for k in (1, 3, 6)
        ]
        assert scores == sorted(scores)

    def test_k_larger_than_skyline(self):
        pts = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
        result = max_dominance_representatives(pts, 10)
        assert sorted(result.indices.tolist()) == [0, 1]

    def test_precomputed_skyline_accepted(self, cloud):
        sky = skyline_numpy(cloud)
        a = max_dominance_representatives(cloud, 4, skyline_indices=sky)
        b = max_dominance_representatives(cloud, 4)
        assert np.array_equal(a.indices, b.indices)

    def test_invalid_k(self, cloud):
        with pytest.raises(ValueError):
            max_dominance_representatives(cloud, 0)

    def test_empty_input(self):
        result = max_dominance_representatives(np.empty((0, 2)), 3)
        assert len(result) == 0

    @given(clouds, st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_property_picks_are_skyline(self, pts, k):
        result = max_dominance_representatives(pts, k)
        sky = set(skyline_numpy(pts).tolist())
        assert set(result.indices.tolist()) <= sky
        assert len(result) == min(k, len(sky))


class TestDistanceBased:
    def test_representatives_are_skyline_points(self, cloud):
        sky = set(skyline_numpy(cloud).tolist())
        result = distance_representatives(cloud, 5)
        assert set(result.indices.tolist()) <= sky
        assert len(result) == 5

    def test_radius_decreases_with_k(self, cloud):
        radii = [distance_representatives(cloud, k).score for k in (1, 3, 8)]
        assert radii == sorted(radii, reverse=True)

    def test_full_skyline_zero_radius(self):
        pts = np.array([[0.0, 3.0], [1.0, 1.0], [3.0, 0.0], [4.0, 4.0]])
        sky_size = skyline_numpy(pts).size
        result = distance_representatives(pts, sky_size)
        assert result.score == pytest.approx(0.0)

    def test_seed_index(self, cloud):
        a = distance_representatives(cloud, 3, seed_index=0)
        assert len(a) == 3
        with pytest.raises(ValueError):
            distance_representatives(cloud, 3, seed_index=10_000)

    def test_spread_beats_clump(self):
        # Representatives should cover both ends of an anti-correlated front.
        x = np.linspace(0, 1, 50)
        pts = np.column_stack([x, 1 - x])
        result = distance_representatives(pts, 3)
        chosen_x = np.sort(pts[result.indices][:, 0])
        assert chosen_x[0] < 0.25 and chosen_x[-1] > 0.75

    def test_invalid_k(self, cloud):
        with pytest.raises(ValueError):
            distance_representatives(cloud, 0)

    def test_empty_input(self):
        assert len(distance_representatives(np.empty((0, 2)), 3)) == 0

    @given(clouds, st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_property_radius_nonnegative(self, pts, k):
        result = distance_representatives(pts, k)
        assert result.score >= 0.0
