"""Tests for Pareto-dominance primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.dominance import (
    DominanceCounter,
    dominance_matrix,
    dominated_by_any,
    dominated_mask,
    dominates,
    dominates_any,
    validate_points,
)

points_2d = arrays(
    np.float64,
    st.tuples(st.integers(1, 40), st.integers(1, 5)),
    elements=st.floats(0, 100, allow_nan=False),
)


class TestScalarPredicates:
    def test_strict_dominance(self):
        assert dominates(np.array([1.0, 1.0]), np.array([2.0, 2.0]))

    def test_equal_in_some_dims_still_dominates(self):
        assert dominates(np.array([1.0, 1.0]), np.array([1.0, 2.0]))

    def test_identical_points_do_not_dominate(self):
        p = np.array([1.0, 2.0])
        assert not dominates(p, p)

    def test_incomparable_pair(self):
        a, b = np.array([1.0, 3.0]), np.array([3.0, 1.0])
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_antisymmetry(self):
        a, b = np.array([1.0, 1.0]), np.array([2.0, 0.5])
        assert not (dominates(a, b) and dominates(b, a))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dominates(np.array([1.0]), np.array([1.0, 2.0]))

    @given(
        a=arrays(np.float64, 4, elements=st.floats(0, 10, allow_nan=False)),
        b=arrays(np.float64, 4, elements=st.floats(0, 10, allow_nan=False)),
        c=arrays(np.float64, 4, elements=st.floats(0, 10, allow_nan=False)),
    )
    @settings(max_examples=100)
    def test_property_transitivity(self, a, b, c):
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)

    @given(
        a=arrays(np.float64, 3, elements=st.floats(0, 10, allow_nan=False)),
        b=arrays(np.float64, 3, elements=st.floats(0, 10, allow_nan=False)),
    )
    @settings(max_examples=100)
    def test_property_irreflexive_antisymmetric(self, a, b):
        assert not dominates(a, a)
        assert not (dominates(a, b) and dominates(b, a))


class TestValidatePoints:
    def test_coerces_1d_to_row(self):
        out = validate_points([1.0, 2.0])
        assert out.shape == (1, 2)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            validate_points(np.array([[1.0, np.nan]]))

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            validate_points(np.zeros((2, 2, 2)))

    def test_rejects_zero_columns(self):
        with pytest.raises(ValueError):
            validate_points(np.zeros((3, 0)))

    def test_returns_float64(self):
        out = validate_points(np.array([[1, 2]], dtype=np.int32))
        assert out.dtype == np.float64

    def test_infinite_values_allowed(self):
        out = validate_points(np.array([[np.inf, 1.0]]))
        assert np.isinf(out[0, 0])


class TestVectorKernels:
    def test_dominates_any(self):
        window = np.array([[5.0, 5.0], [1.0, 1.0]])
        assert dominates_any(window, np.array([2.0, 2.0]))
        assert not dominates_any(window, np.array([0.5, 0.5]))

    def test_dominates_any_empty_window(self):
        assert not dominates_any(np.empty((0, 2)), np.array([1.0, 1.0]))

    def test_dominated_by_any(self):
        window = np.array([[5.0, 5.0], [1.0, 1.0], [0.2, 9.0]])
        mask = dominated_by_any(window, np.array([1.0, 1.0]))
        assert mask.tolist() == [True, False, False]

    def test_dominated_by_any_empty(self):
        assert dominated_by_any(np.empty((0, 3)), np.zeros(3)).shape == (0,)

    @given(points_2d)
    @settings(max_examples=60)
    def test_property_kernels_match_scalar(self, pts):
        probe = pts[0]
        window = pts[1:] if pts.shape[0] > 1 else np.empty((0, pts.shape[1]))
        expect_any = any(dominates(w, probe) for w in window)
        assert dominates_any(window, probe) == expect_any
        expect_mask = [dominates(probe, w) for w in window]
        assert dominated_by_any(window, probe).tolist() == expect_mask


class TestDominanceMatrix:
    def test_small_example(self):
        pts = np.array([[1.0, 1.0], [2.0, 2.0], [0.5, 3.0]])
        m = dominance_matrix(pts)
        assert m[0, 1] and not m[1, 0]
        assert not m[0, 2] and not m[2, 0]
        assert not m.diagonal().any()

    @given(points_2d)
    @settings(max_examples=40)
    def test_property_matches_scalar(self, pts):
        m = dominance_matrix(pts)
        n = pts.shape[0]
        for i in range(min(n, 6)):
            for j in range(min(n, 6)):
                assert m[i, j] == dominates(pts[i], pts[j])


class TestDominatedMask:
    def test_matches_matrix(self):
        rng = np.random.default_rng(3)
        pts = rng.random((200, 3))
        m = dominance_matrix(pts)
        assert np.array_equal(dominated_mask(pts), m.any(axis=0))

    @pytest.mark.parametrize("block", [1, 7, 64, 10_000])
    def test_block_size_invariant(self, block):
        rng = np.random.default_rng(4)
        pts = rng.random((150, 4))
        assert np.array_equal(
            dominated_mask(pts, block=block), dominated_mask(pts)
        )

    def test_duplicates_not_dominated(self):
        pts = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert dominated_mask(pts).tolist() == [False, False]

    def test_counter_accumulates(self):
        counter = DominanceCounter()
        dominated_mask(np.random.default_rng(0).random((50, 2)), counter=counter)
        assert counter.tests == 2500
        assert counter.by_stage["dominated_mask"] == 2500


class TestDominanceCounter:
    def test_merge(self):
        a, b = DominanceCounter(), DominanceCounter()
        a.add(10, "x")
        b.add(5, "x")
        b.add(2, "y")
        a.merge(b)
        assert a.tests == 17
        assert a.by_stage == {"x": 15, "y": 2}
