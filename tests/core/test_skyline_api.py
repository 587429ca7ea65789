"""Tests for the unified skyline dispatcher."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.skyline import is_skyline, skyline, skyline_numpy, skyline_points

ALGOS = ("bnl", "sfs")

clouds = arrays(
    np.float64,
    st.tuples(st.integers(1, 60), st.integers(1, 4)),
    elements=st.floats(0, 20, allow_nan=False),
)


class TestDispatch:
    @pytest.mark.parametrize("algo", ALGOS)
    def test_all_algorithms_agree(self, algo):
        rng = np.random.default_rng(0)
        pts = rng.random((300, 3))
        assert np.array_equal(skyline(pts, algorithm=algo), skyline_numpy(pts))

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            skyline(np.ones((2, 2)), algorithm="quantum")  # type: ignore[arg-type]

    def test_bbs_is_not_an_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            skyline(np.ones((2, 2)), algorithm="bbs")  # type: ignore[arg-type]

    def test_kwargs_forwarded_to_bnl(self):
        rng = np.random.default_rng(1)
        pts = rng.random((100, 2))
        assert np.array_equal(
            skyline(pts, algorithm="bnl", window_size=3), skyline_numpy(pts)
        )

    def test_kwargs_rejected_where_unsupported(self):
        with pytest.raises(TypeError):
            skyline(np.ones((2, 2)), algorithm="bnl", score="sum")
        with pytest.raises(TypeError):
            skyline(np.ones((2, 2)), algorithm="sfs", window_size=3)

    def test_skyline_points_returns_rows(self):
        pts = np.array([[5.0, 5.0], [1.0, 1.0]])
        assert np.array_equal(skyline_points(pts), [[1.0, 1.0]])

    @given(clouds, st.sampled_from(ALGOS))
    @settings(max_examples=60, deadline=None)
    def test_property_cross_algorithm_agreement(self, pts, algo):
        assert np.array_equal(skyline(pts, algorithm=algo), skyline_numpy(pts))


class TestIsSkyline:
    def test_accepts_correct(self):
        rng = np.random.default_rng(2)
        pts = rng.random((50, 3))
        assert is_skyline(pts, skyline_numpy(pts))

    def test_rejects_missing_point(self):
        rng = np.random.default_rng(3)
        pts = rng.random((50, 3))
        idx = skyline_numpy(pts)
        assert not is_skyline(pts, idx[:-1])

    def test_rejects_extra_point(self):
        pts = np.array([[1.0, 1.0], [2.0, 2.0]])
        assert not is_skyline(pts, np.array([0, 1]))

    def test_order_insensitive(self):
        rng = np.random.default_rng(4)
        pts = rng.random((50, 3))
        idx = skyline_numpy(pts)
        assert is_skyline(pts, idx[::-1])
