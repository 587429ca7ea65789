"""Tests for the Eq. (1) hyperspherical coordinate transform."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.hyperspherical import (
    MAX_ANGLE,
    _suffix_square_sums,
    angle_columns,
    from_hyperspherical,
    to_hyperspherical,
)

nonneg_points = arrays(
    np.float64,
    st.tuples(st.integers(1, 30), st.integers(2, 6)),
    elements=st.floats(0, 1000, allow_nan=False),
)


class TestForward:
    def test_2d_matches_eq2(self):
        # Paper Eq. (2): r = sqrt(x²+y²), tan(ø) = y/x.
        pts = np.array([[3.0, 4.0]])
        r, angles = to_hyperspherical(pts)
        assert r[0] == pytest.approx(5.0)
        assert np.tan(angles[0, 0]) == pytest.approx(4.0 / 3.0)

    def test_known_3d(self):
        pts = np.array([[1.0, 1.0, 1.0]])
        r, angles = to_hyperspherical(pts)
        assert r[0] == pytest.approx(np.sqrt(3))
        assert np.tan(angles[0, 0]) == pytest.approx(np.sqrt(2) / 1.0)
        assert np.tan(angles[0, 1]) == pytest.approx(1.0)

    def test_axis_points(self):
        # A point on the first axis has every angle 0.
        r, angles = to_hyperspherical(np.array([[5.0, 0.0, 0.0]]))
        assert r[0] == pytest.approx(5.0)
        assert np.allclose(angles, 0.0)

    def test_last_axis_point(self):
        # A point on the last axis has every angle π/2.
        r, angles = to_hyperspherical(np.array([[0.0, 0.0, 7.0]]))
        assert np.allclose(angles, MAX_ANGLE)

    def test_origin_angles_zero(self):
        r, angles = to_hyperspherical(np.zeros((1, 4)))
        assert r[0] == 0.0
        assert np.allclose(angles, 0.0)

    def test_signed_zeros_are_zero(self):
        # arctan2(+0, -0) is π: a -0.0 coordinate must not leave [0, π/2].
        for pts in ([[-0.0, 0.0, 0.0]], [[-0.0, -0.0, -0.0]], [[1.0, -0.0, 0.0]]):
            r, angles = to_hyperspherical(np.array(pts))
            assert r[0] == np.linalg.norm(pts)
            assert np.array_equal(angles, np.zeros((1, 2)))
            assert np.array_equal(angle_columns(np.array(pts), [0, 1]), angles)
        # ø₂ of (-0.0, -0.0, 3): the suffix is non-zero, so π/2 as for +0.
        _, angles = to_hyperspherical(np.array([[-0.0, -0.0, 3.0]]))
        assert np.array_equal(angles, [[MAX_ANGLE, MAX_ANGLE]])

    def test_angle_count(self):
        _, angles = to_hyperspherical(np.ones((3, 6)))
        assert angles.shape == (3, 5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            to_hyperspherical(np.array([[1.0, -0.1]]))

    def test_1d_rejected(self):
        with pytest.raises(ValueError, match="2 dimensions"):
            to_hyperspherical(np.array([[1.0]]))

    @given(nonneg_points)
    @settings(max_examples=80)
    def test_property_ranges(self, pts):
        r, angles = to_hyperspherical(pts)
        assert (r >= 0).all()
        assert (angles >= 0).all()
        assert (angles <= MAX_ANGLE + 1e-12).all()
        norms = np.linalg.norm(pts, axis=1)
        assert np.allclose(r, norms)


class TestInverse:
    def test_round_trip_small(self):
        pts = np.array([[3.0, 4.0], [1.0, 0.0], [0.0, 2.0]])
        r, angles = to_hyperspherical(pts)
        assert np.allclose(from_hyperspherical(r, angles), pts)

    def test_scalar_shapes(self):
        out = from_hyperspherical(np.array(5.0), np.array([np.pi / 4]))
        assert out.shape == (1, 2)
        assert np.allclose(out, [[5 / np.sqrt(2), 5 / np.sqrt(2)]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            from_hyperspherical(np.ones(3), np.ones((2, 2)))

    @given(nonneg_points)
    @settings(max_examples=80)
    def test_property_round_trip(self, pts):
        r, angles = to_hyperspherical(pts)
        back = from_hyperspherical(r, angles)
        assert np.allclose(back, pts, atol=1e-8)

    @given(
        r=arrays(np.float64, 5, elements=st.floats(0.1, 100, allow_nan=False)),
        angles=arrays(
            np.float64, (5, 3), elements=st.floats(0.01, np.pi / 2 - 0.01)
        ),
    )
    @settings(max_examples=60)
    def test_property_inverse_round_trip(self, r, angles):
        # Going the other way: angles -> cartesian -> angles.
        pts = from_hyperspherical(r, angles)
        r2, angles2 = to_hyperspherical(pts)
        assert np.allclose(r2, r, rtol=1e-9)
        assert np.allclose(angles2, angles, atol=1e-9)


class TestScaleInvariance:
    @given(
        pts=arrays(
            np.float64, (8, 4), elements=st.floats(0.01, 100, allow_nan=False)
        ),
        scale=st.floats(0.1, 1000),
    )
    @settings(max_examples=60)
    def test_property_angles_scale_invariant(self, pts, scale):
        """Scaling all coordinates uniformly leaves the angles unchanged —
        the geometric property that makes cones radial partitions."""
        _, angles = to_hyperspherical(pts)
        _, scaled_angles = to_hyperspherical(pts * scale)
        assert np.allclose(angles, scaled_angles, atol=1e-9)


def _reversed_cumsum_transform(pts):
    """The transform as first written: one reversed cumulative sum."""
    d = pts.shape[1]
    sums = np.cumsum((pts**2)[:, ::-1], axis=1)[:, ::-1]
    return np.sqrt(sums[:, 0]), np.arctan2(np.sqrt(sums[:, 1:]), pts[:, : d - 1])


def _awkward_points(d, seed=0):
    """Random rows of several magnitudes plus all-zero and on-axis rows."""
    rng = np.random.default_rng(seed)
    pts = np.vstack(
        [
            rng.random((200, d)),
            rng.lognormal(size=(200, d)) * 1e3,
            rng.random((50, d)) * 1e-6,
            np.zeros((3, d)),
            np.eye(d) * 2.5,
        ]
    )
    pts[::7, 0] = 0.0  # zero first coordinate: ø₁ = π/2
    pts[::11, 1:] = 0.0  # on the first axis: every angle 0
    return pts


class TestPartialAngles:
    @pytest.mark.parametrize("d", [2, 3, 6, 8, 10])
    def test_column_accumulation_matches_reversed_cumsum_bitwise(self, d):
        pts = _awkward_points(d, seed=d)
        r, angles = to_hyperspherical(pts)
        r_ref, angles_ref = _reversed_cumsum_transform(pts)
        assert np.array_equal(r, r_ref)
        assert np.array_equal(angles, angles_ref)

    @pytest.mark.parametrize("d", [2, 3, 6, 8, 10])
    def test_angle_columns_match_full_transform_bitwise(self, d):
        pts = _awkward_points(d, seed=d + 1)
        _, angles = to_hyperspherical(pts)
        for axes in ([0], [d - 2], list(range(d - 1)), sorted({0, (d - 1) // 2, d - 2})):
            assert np.array_equal(angle_columns(pts, axes), angles[:, axes]), axes
        assert angle_columns(pts, []).shape == (pts.shape[0], 0)

    @pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 3 * 4096 + 17])
    @pytest.mark.parametrize("lowest", [0, 1, 5])
    def test_blocked_suffix_sums_match_reversed_cumsum_bitwise(self, n, lowest):
        # Row blocks change the order rows are visited in, never an add.
        pts = np.random.default_rng(n).lognormal(size=(n, 6)) * 1e3
        pts[::5, 3:] = 0.0
        want = np.cumsum((pts**2)[:, ::-1], axis=1)[:, ::-1][:, lowest:].T
        got = _suffix_square_sums(pts, lowest)
        assert got.shape == (6 - lowest, n)
        assert np.array_equal(got, want)

    def test_angle_columns_validate_like_the_transform(self):
        for axes in ([], [0], [1]):
            with pytest.raises(ValueError, match="non-negative"):
                angle_columns(np.array([[1.0, 2.0, -0.1]]), axes)
        with pytest.raises(ValueError, match="2 dimensions"):
            angle_columns(np.array([[1.0]]), [])
        with pytest.raises(ValueError, match="out of range"):
            angle_columns(np.ones((2, 3)), [2])

    @given(nonneg_points, st.data())
    @settings(max_examples=80)
    def test_property_partial_equals_full_equals_reference(self, pts, data):
        d = pts.shape[1]
        axes = data.draw(st.lists(st.integers(0, d - 2), unique=True).map(sorted))
        r, angles = to_hyperspherical(pts)
        r_ref, angles_ref = _reversed_cumsum_transform(pts)
        assert np.array_equal(r, r_ref) and np.array_equal(angles, angles_ref)
        assert np.array_equal(angle_columns(pts, axes), angles[:, axes])


class TestHugeCoordinates:
    """Squares past the float range (coordinates above ~1.34e154) are
    summed again scaled, and nothing else moves."""

    def test_equal_huge_coordinates_are_half_a_right_angle(self):
        angles = angle_columns(np.array([[1.35e154, 1.35e154], [1.0, 2.0]]), [0])
        assert angles[0, 0] == pytest.approx(np.pi / 4, rel=1e-15)
        assert angles[1, 0] == np.arctan2(2.0, 1.0)

    def test_rows_with_an_infinity_keep_their_angles(self):
        pts = np.array([[np.inf, 1.0, 1.0], [1.0, np.inf, 1e200]])
        with np.errstate(over="ignore"):
            r_ref, angles_ref = _reversed_cumsum_transform(pts)
        r, angles = to_hyperspherical(pts)
        assert np.array_equal(r, r_ref) and np.array_equal(angles, angles_ref)

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 20), st.integers(2, 6)),
            elements=st.floats(0, 1e300),
        ),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_angles_up_to_1e300(self, pts, data):
        # Runs under the pytest filter that turns a RuntimeWarning from
        # repro.core.hyperspherical into a failure.
        d = pts.shape[1]
        r, angles = to_hyperspherical(pts)
        assert np.isfinite(r).all()
        assert ((angles >= 0) & (angles <= MAX_ANGLE)).all()
        axes = data.draw(st.lists(st.integers(0, d - 2), unique=True).map(sorted))
        assert np.array_equal(angle_columns(pts, axes), angles[:, axes])
        # Every norm whose plain sum of squares stays finite keeps the plain
        # transform's bits; every other one matches a norm that never
        # squares at all.
        with np.errstate(over="ignore"):
            sums = np.cumsum((pts**2)[:, ::-1], axis=1)[:, ::-1]
        plain = np.isfinite(sums)
        hypot = np.stack([np.hypot.reduce(pts[:, k:], axis=1) for k in range(d)], axis=1)
        norms = np.where(plain, np.sqrt(sums), hypot)
        want_r, want_angles = norms[:, 0], np.arctan2(norms[:, 1:], pts[:, :-1])
        assert np.array_equal(r[plain[:, 0]], want_r[plain[:, 0]])
        assert np.array_equal(angles[plain[:, 1:]], want_angles[plain[:, 1:]])
        np.testing.assert_allclose(r, want_r, rtol=1e-13, atol=0)
        np.testing.assert_allclose(angles, want_angles, rtol=1e-13, atol=0)
