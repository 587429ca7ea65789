"""Tests for the BNL skyline algorithm (unbounded and bounded windows)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.bnl import bnl_merge, bnl_skyline
from repro.core.dominance import DominanceCounter
from repro.core.kernels import KERNEL_NAMES
from repro.core.skyline import skyline_numpy

clouds = arrays(
    np.float64,
    st.tuples(st.integers(1, 80), st.integers(1, 5)),
    elements=st.floats(0, 50, allow_nan=False),
)


class TestBasic:
    def test_known_2d_example(self):
        # The paper's Figure 1 shape: a staircase front plus dominated points.
        pts = np.array(
            [
                [1.0, 9.0],  # s1 skyline
                [2.0, 7.0],  # s2 skyline
                [3.0, 5.0],  # s3 skyline
                [5.0, 4.0],  # s4 skyline
                [7.0, 3.0],  # s5 skyline
                [9.0, 2.0],  # s6 skyline
                [6.0, 6.0],  # dominated by s4 (5,4)
                [8.0, 8.0],  # dominated
            ]
        )
        result = bnl_skyline(pts)
        assert result.indices.tolist() == [0, 1, 2, 3, 4, 5]
        assert result.passes == 1

    def test_single_point(self):
        result = bnl_skyline(np.array([[3.0, 4.0]]))
        assert result.indices.tolist() == [0]

    def test_all_duplicates_kept(self):
        pts = np.ones((5, 3))
        assert bnl_skyline(pts).indices.tolist() == [0, 1, 2, 3, 4]

    def test_total_order_chain(self):
        pts = np.arange(20, dtype=np.float64).reshape(-1, 1) @ np.ones((1, 3))
        assert bnl_skyline(pts).indices.tolist() == [0]

    def test_indices_sorted_ascending(self):
        rng = np.random.default_rng(0)
        pts = rng.random((300, 3))
        idx = bnl_skyline(pts).indices
        assert np.all(np.diff(idx) > 0)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(1)
        pts = rng.random((500, 4))
        assert np.array_equal(bnl_skyline(pts).indices, skyline_numpy(pts))

    def test_points_helper(self):
        pts = np.array([[2.0, 2.0], [1.0, 1.0]])
        result = bnl_skyline(pts)
        assert np.array_equal(result.points(pts), [[1.0, 1.0]])

    def test_dominance_tests_counted(self):
        counter = DominanceCounter()
        result = bnl_skyline(np.random.default_rng(2).random((100, 3)), counter=counter)
        assert counter.tests == result.dominance_tests > 0

    def test_input_order_invariance(self):
        rng = np.random.default_rng(5)
        pts = rng.random((200, 3))
        perm = rng.permutation(200)
        base = set(bnl_skyline(pts).indices.tolist())
        shuffled = bnl_skyline(pts[perm]).indices
        assert {int(perm[i]) for i in shuffled} == base


class TestBoundedWindow:
    @pytest.mark.parametrize("window", [1, 2, 3, 5, 17])
    def test_matches_unbounded(self, window):
        rng = np.random.default_rng(7)
        pts = rng.random((250, 3))
        bounded = bnl_skyline(pts, window_size=window)
        assert np.array_equal(bounded.indices, bnl_skyline(pts).indices)

    def test_multiple_passes_happen(self):
        # Anti-correlated line: everything is skyline, window of 2 must spill.
        x = np.linspace(0, 1, 30)
        pts = np.column_stack([x, 1 - x])
        result = bnl_skyline(pts, window_size=2)
        assert result.passes > 1
        assert result.indices.size == 30

    def test_window_one(self):
        rng = np.random.default_rng(9)
        pts = rng.random((60, 2))
        assert np.array_equal(
            bnl_skyline(pts, window_size=1).indices, skyline_numpy(pts)
        )

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            bnl_skyline(np.ones((2, 2)), window_size=0)

    @given(clouds, st.integers(1, 10))
    @settings(max_examples=50, deadline=None)
    def test_property_window_size_invariant(self, pts, window):
        assert np.array_equal(
            bnl_skyline(pts, window_size=window).indices,
            skyline_numpy(pts),
        )


class TestWindowAtLeastN:
    """A window that never fills is one pass of bnl.py's loop, which must
    agree with the kernel path of an unbounded window."""

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(0, 60), st.integers(1, 4)),
            elements=st.integers(0, 6).map(float),
        ),
        st.integers(0, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_equals_the_kernel_path(self, kernel, pts, slack):
        n = pts.shape[0]
        loop = bnl_skyline(pts, window_size=n + slack + 1, kernel=kernel)
        unbounded = bnl_skyline(pts, kernel=kernel)
        assert np.array_equal(loop.indices, unbounded.indices)
        assert loop.passes == unbounded.passes == (1 if n else 0)
        # The loop is kernel-independent and counts like the scalar kernel;
        # the block sweep counts its own, chunked tests.
        scalar = bnl_skyline(pts, kernel="scalar")
        assert loop.dominance_tests == scalar.dominance_tests


class TestPropertyCorrectness:
    @given(clouds)
    @settings(max_examples=80, deadline=None)
    def test_property_matches_bruteforce(self, pts):
        assert np.array_equal(bnl_skyline(pts).indices, skyline_numpy(pts))

    @given(clouds)
    @settings(max_examples=40, deadline=None)
    def test_property_skyline_undominated_and_dominating(self, pts):
        from repro.core.dominance import dominates

        idx = set(bnl_skyline(pts).indices.tolist())
        for i in range(pts.shape[0]):
            dominated = any(
                dominates(pts[j], pts[i]) for j in range(pts.shape[0]) if j != i
            )
            assert (i in idx) == (not dominated)


class TestMerge:
    def test_merge_locals(self):
        a = np.array([[1.0, 5.0], [2.0, 4.0]])
        b = np.array([[1.5, 4.5], [0.5, 6.0]])
        result = bnl_merge([a, b])
        merged = np.vstack([a, b])
        assert np.array_equal(result.indices, skyline_numpy(merged))

    def test_merge_empty_list(self):
        result = bnl_merge([])
        assert result.indices.size == 0

    def test_merge_is_global_skyline_of_union(self):
        rng = np.random.default_rng(11)
        pts = rng.random((300, 3))
        halves = [pts[:150], pts[150:]]
        locals_ = [h[skyline_numpy(h)] for h in halves]
        merged_idx = bnl_merge(locals_).indices
        stacked = np.vstack(locals_)
        global_pts = stacked[merged_idx]
        expected = pts[skyline_numpy(pts)]
        assert np.array_equal(
            np.sort(global_pts, axis=0), np.sort(expected, axis=0)
        )
