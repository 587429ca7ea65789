"""Tests for the data-space partitioners (dim / grid / angle / random)."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.hyperspherical import MAX_ANGLE, angle_columns, to_hyperspherical
from repro.core.partitioning import (
    AngularPartitioner,
    DimensionalPartitioner,
    GridPartitioner,
    NotFittedError,
    RandomPartitioner,
    balanced_axis_counts,
    load_imbalance,
    make_partitioner,
    partition_sizes,
)
from repro.core.partitioning.angular import _sorted_quantiles

nonneg_clouds = arrays(
    np.float64,
    st.tuples(st.integers(2, 60), st.integers(2, 5)),
    elements=st.floats(0, 100, allow_nan=False),
)


class TestBaseProtocol:
    def test_assign_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            DimensionalPartitioner(4).assign(np.ones((2, 2)))

    def test_fit_assign(self):
        pts = np.random.default_rng(0).random((20, 3))
        ids = DimensionalPartitioner(4).fit_assign(pts)
        assert ids.shape == (20,)

    def test_invalid_partition_count(self):
        with pytest.raises(ValueError):
            DimensionalPartitioner(0)

    def test_summary(self):
        p = AngularPartitioner(4).fit(np.random.default_rng(0).random((30, 3)))
        s = p.summary()
        assert s.scheme == "angle"
        assert s.num_partitions == 4

    @pytest.mark.parametrize("scheme", ["dim", "grid", "angle", "random"])
    def test_factory(self, scheme):
        p = make_partitioner(scheme, 4)
        assert p.scheme == scheme

    def test_factory_unknown(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            make_partitioner("voronoi", 4)

    @pytest.mark.parametrize("scheme", ["dim", "grid", "angle", "random"])
    def test_picklable_after_fit(self, scheme):
        import pickle

        pts = np.random.default_rng(1).random((50, 3)) + 0.01
        p = make_partitioner(scheme, 4).fit(pts)
        clone = pickle.loads(pickle.dumps(p))
        assert np.array_equal(clone.assign(pts), p.assign(pts))

    @pytest.mark.parametrize("scheme", ["dim", "grid", "angle", "random"])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_property_ids_in_range(self, scheme, data):
        pts = data.draw(nonneg_clouds)
        p = make_partitioner(scheme, 5).fit(pts)
        ids = p.assign(pts)
        assert ids.min() >= 0
        assert ids.max() < p.num_partitions


class TestDimensional:
    def test_equal_width_slabs(self):
        pts = np.column_stack([np.array([0.0, 1.0, 5.0, 9.99, 10.0]), np.zeros(5)])
        p = DimensionalPartitioner(4).fit(pts)
        assert p.assign(pts).tolist() == [0, 0, 2, 3, 3]

    def test_custom_dim(self):
        pts = np.column_stack([np.zeros(4), np.array([0.0, 3.0, 6.0, 9.0])])
        # vmax = 9, width = 3: slabs [0,3), [3,6), [6,9].
        p = DimensionalPartitioner(3, dim=1).fit(pts)
        assert p.assign(pts).tolist() == [0, 1, 2, 2]

    def test_out_of_range_clamps(self):
        pts = np.array([[5.0, 0.0]])
        p = DimensionalPartitioner(4).fit(pts)
        assert p.assign(np.array([[100.0, 0.0]])).tolist() == [3]

    def test_all_zero_column(self):
        pts = np.zeros((10, 2))
        p = DimensionalPartitioner(4).fit(pts)
        assert (p.assign(pts) == 0).all()

    def test_dim_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            DimensionalPartitioner(4, dim=5).fit(np.ones((3, 2)))

    def test_quantile_slabs_balanced(self):
        rng = np.random.default_rng(0)
        pts = np.column_stack([rng.lognormal(size=5000), rng.random(5000)])
        p = DimensionalPartitioner(8, bins="quantile").fit(pts)
        assert load_imbalance(p.assign(pts), 8) < 1.1

    def test_equal_width_imbalanced_on_lognormal(self):
        rng = np.random.default_rng(0)
        pts = np.column_stack([rng.lognormal(size=5000), rng.random(5000)])
        p = DimensionalPartitioner(8).fit(pts)
        assert load_imbalance(p.assign(pts), 8) > 2.0

    def test_bad_bins_rejected(self):
        with pytest.raises(ValueError):
            DimensionalPartitioner(4, bins="fancy")  # type: ignore[arg-type]

    def test_subnormal_column_degenerates_to_one_slab(self):
        # vmax/Np underflows to 0.0 for subnormal maxima; regression for a
        # divide-by-zero found by hypothesis.
        pts = np.array([[5e-324, 1.0], [0.0, 2.0]])
        p = DimensionalPartitioner(4).fit(pts)
        ids = p.assign(pts)
        assert (ids == 0).all()

    def test_cast_overflow_clips_before_the_cast(self):
        # Found by Hypothesis: -1 over a 1.6e-200 slab width is far outside
        # int64 and used to be an undefined cast; it is slab 0.
        pts = np.array([[6.59539198e-200, 0.0], [-1.0, 0.0]])
        p = DimensionalPartitioner(4).fit(pts)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert p.assign(pts).tolist() == [3, 0]
            assert p.assign(np.array([[1.0, 0.0], [np.inf, 0.0]])).tolist() == [3, 3]
            # The quotient overflows the division itself over a subnormal width.
            tiny = DimensionalPartitioner(4).fit(np.array([[2.2e-311, 0.0]]))
            assert tiny.assign(np.array([[-1.0, 0.0], [1.0, 0.0]])).tolist() == [0, 3]

    def test_infinite_vmax_column_is_one_slab(self):
        pts = np.array([[np.inf, 0.0], [3.0, 0.0]])
        p = DimensionalPartitioner(4).fit(pts)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert p.assign(pts).tolist() == [0, 0]


class TestBalancedAxisCounts:
    def test_exact_budget(self):
        assert np.prod(balanced_axis_counts(8, 3)) == 8

    def test_never_exceeds_budget(self):
        for target in range(1, 40):
            for axes in range(1, 5):
                assert np.prod(balanced_axis_counts(target, axes)) <= target

    def test_single_axis(self):
        assert balanced_axis_counts(7, 1) == [7]

    def test_zero_axes(self):
        assert balanced_axis_counts(5, 0) == []

    def test_even_spread(self):
        counts = balanced_axis_counts(16, 4)
        assert max(counts) - min(counts) <= 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            balanced_axis_counts(0, 2)
        with pytest.raises(ValueError):
            balanced_axis_counts(4, -1)


class TestGrid:
    def test_2d_four_cells(self):
        pts = np.array([[1.0, 1.0], [9.0, 1.0], [1.0, 9.0], [9.0, 9.0], [10.0, 10.0]])
        p = GridPartitioner(4).fit(pts)
        ids = p.assign(pts)
        assert len(set(ids.tolist())) == 4
        assert ids[3] == ids[4]  # both in the top-right cell

    def test_explicit_cells_per_dim(self):
        pts = np.random.default_rng(0).random((50, 3))
        p = GridPartitioner(100, cells_per_dim=[2, 3, 1]).fit(pts)
        assert p.num_partitions == 6

    def test_cells_per_dim_length_mismatch(self):
        with pytest.raises(ValueError):
            GridPartitioner(4, cells_per_dim=[2, 2]).fit(np.ones((3, 3)))

    def test_cell_coordinates_round_trip(self):
        pts = np.random.default_rng(1).random((30, 3))
        p = GridPartitioner(8).fit(pts)
        for cid in range(p.num_partitions):
            coords = p.cell_coordinates(cid)
            reconstructed = sum(
                c * int(r) for c, r in zip(coords, p._radix)
            )
            assert reconstructed == cid

    def test_pruned_cells_2d(self):
        # Uniform square, 2x2 grid: the top-right cell is dominated by the
        # bottom-left cell.
        rng = np.random.default_rng(2)
        pts = rng.random((500, 2))
        p = GridPartitioner(4, cells_per_dim=[2, 2]).fit(pts)
        pruned = p.pruned_cells()
        top_right = p.assign(np.array([[0.99, 0.99]]))[0]
        assert top_right in pruned
        assert p.assign(np.array([[0.01, 0.01]]))[0] not in pruned

    def test_pruned_points_cannot_be_skyline(self):
        from repro.core.skyline import skyline_numpy

        rng = np.random.default_rng(3)
        pts = rng.random((400, 2))
        p = GridPartitioner(4, cells_per_dim=[2, 2]).fit(pts)
        mask = np.isin(p.assign(pts), p.pruned_cells())
        sky = set(skyline_numpy(pts).tolist())
        assert not (set(np.flatnonzero(mask).tolist()) & sky)

    def test_no_pruning_when_single_cell_axes(self):
        # counts like [2,1]: no cell can be +1 below another in ALL axes.
        pts = np.random.default_rng(4).random((100, 2))
        p = GridPartitioner(2, cells_per_dim=[2, 1]).fit(pts)
        assert p.pruned_cells().size == 0

    def test_pruning_requires_occupied_dominator(self):
        # Points only in the top-right cell: nothing occupies a dominating
        # cell, so nothing can be pruned.
        pts = np.random.default_rng(5).random((50, 2)) * 0.4 + 0.6
        p = GridPartitioner(4, cells_per_dim=[2, 2]).fit(pts)
        top_right = p.assign(np.array([[0.99, 0.99]]))[0]
        assert top_right not in p.pruned_cells()

    def test_quantile_grid_balanced(self):
        rng = np.random.default_rng(6)
        pts = np.column_stack([rng.lognormal(size=3000), rng.lognormal(size=3000)])
        eq = GridPartitioner(4, cells_per_dim=[2, 2]).fit(pts)
        q = GridPartitioner(4, cells_per_dim=[2, 2], bins="quantile").fit(pts)
        assert load_imbalance(q.assign(pts), 4) < load_imbalance(eq.assign(pts), 4)

    def test_subnormal_column_no_warning(self):
        pts = np.array([[5e-324, 1.0], [0.0, 2.0]])
        p = GridPartitioner(4, cells_per_dim=[2, 2]).fit(pts)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p.assign(pts)

    def test_cast_overflow_found_by_hypothesis(self):
        # -1 over a 1.3e-222 slab width is far outside int64: the quotient is
        # clipped before the cast, so there is no undefined conversion.
        pts = np.array([[0.0, 2.58e-222], [0.0, -1.0]])
        p = GridPartitioner(4).fit(pts)
        assert p.summary().detail["cells_per_dim"] == [2, 2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert p.assign(pts).tolist() == [1, 0]

    def test_quotient_overflow_over_a_subnormal_width(self):
        # Found by Hypothesis: -1 over a 1.1e-311 slab width overflows the
        # division itself to -inf, which is slab 0, without a warning.
        pts = np.array([[0.0, 2.22507386e-311], [0.0, -1.0]])
        p = GridPartitioner(4).fit(pts)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert p.assign(pts).tolist() == [1, 0]
            assert p.assign(np.array([[0.0, 1.0]])).tolist() == [1]

    def test_out_of_range_arrival_lands_in_the_last_slab(self):
        p = GridPartitioner(4).fit(np.array([[0.0, 2.58e-222], [0.0, -1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # Far above vmax on the tiny-width column: its last slab, not 0.
            assert p.assign(np.array([[0.0, 1.0]])).tolist() == [1]
            # The infinite-width column is one slab; +inf on a finite-width
            # column is that column's last slab.
            assert p.assign(np.array([[np.inf, np.inf]])).tolist() == [1]
            assert p.assign(np.array([[7.0, -np.inf]])).tolist() == [0]

    def test_infinite_vmax_column_is_one_slab(self):
        pts = np.array([[np.inf, 1.0], [0.0, 2.0], [3.0, 0.5]])
        p = GridPartitioner(4, cells_per_dim=[2, 2]).fit(pts)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ids = p.assign(pts)
        assert [p.cell_coordinates(c)[0] for c in ids] == [0, 0, 0]
        assert [p.cell_coordinates(c)[1] for c in ids] == [1, 1, 0]

    def test_quantile_pruning_still_sound(self):
        from repro.core.skyline import skyline_numpy

        rng = np.random.default_rng(7)
        pts = rng.random((400, 2))
        p = GridPartitioner(9, cells_per_dim=[3, 3], bins="quantile").fit(pts)
        mask = np.isin(p.assign(pts), p.pruned_cells())
        sky = set(skyline_numpy(pts).tolist())
        assert not (set(np.flatnonzero(mask).tolist()) & sky)


class TestAngular:
    def test_2d_fan_matches_manual_angles(self):
        rng = np.random.default_rng(0)
        pts = rng.random((200, 2)) + 0.01
        p = AngularPartitioner(4, bins="equal-width").fit(pts)
        ids = p.assign(pts)
        angles = np.arctan2(pts[:, 1], pts[:, 0])
        expected = np.clip((angles / (np.pi / 2) * 4).astype(int), 0, 3)
        assert np.array_equal(ids, expected)

    def test_first_axis_allocation_exact_budget(self):
        pts = np.random.default_rng(1).random((100, 5))
        p = AngularPartitioner(7).fit(pts)
        assert p.num_partitions == 7

    def test_balanced_allocation_within_budget(self):
        pts = np.random.default_rng(2).random((100, 5))
        p = AngularPartitioner(8, allocation="balanced").fit(pts)
        assert p.num_partitions <= 8

    def test_explicit_allocation(self):
        pts = np.random.default_rng(3).random((100, 4))
        p = AngularPartitioner(100, allocation=[2, 3, 1]).fit(pts)
        assert p.num_partitions == 6

    def test_too_many_axis_counts_rejected(self):
        pts = np.random.default_rng(4).random((10, 3))
        with pytest.raises(ValueError):
            AngularPartitioner(4, allocation=[2, 2, 2]).fit(pts)

    def test_quantile_sectors_balanced(self):
        rng = np.random.default_rng(5)
        pts = rng.lognormal(size=(3000, 6))
        p = AngularPartitioner(8).fit(pts)
        assert load_imbalance(p.assign(pts), p.num_partitions) < 1.05

    def test_sectors_are_radial_cones(self):
        """Scaling a point radially never changes its sector — the property
        that guarantees each sector spans all quality levels."""
        rng = np.random.default_rng(6)
        pts = rng.random((100, 4)) + 0.01
        p = AngularPartitioner(8).fit(pts)
        for scale in (0.25, 3.0, 40.0):
            assert np.array_equal(p.assign(pts), p.assign(pts * scale))

    def test_negative_data_rejected(self):
        p = AngularPartitioner(4)
        with pytest.raises(ValueError):
            p.fit(np.array([[1.0, -1.0]]))

    def test_nan_boundaries_rejected(self):
        # NaN passes the sortedness test (np.diff gives NaN, NaN < 0 is
        # False) and would bin 0.10, 0.79, 1.47 as [0, 2, 2].
        for edges in ([np.nan, 0.5], [0.5, np.nan], [np.nan]):
            with pytest.raises(ValueError, match="NaN"):
                AngularPartitioner(3, boundaries=[np.array(edges)])
        with pytest.raises(ValueError, match="NaN"):
            AngularPartitioner(4, boundaries=[np.array([0.5]), np.array([np.nan])])

    def test_invalid_options(self):
        with pytest.raises(ValueError):
            AngularPartitioner(4, bins="log")  # type: ignore[arg-type]
        with pytest.raises(ValueError):
            AngularPartitioner(4, allocation="middle-out")  # type: ignore[arg-type]
        with pytest.raises(ValueError):
            AngularPartitioner(4, allocation=[0, 2])

    @given(nonneg_clouds)
    @settings(max_examples=40, deadline=None)
    def test_property_every_point_assigned(self, pts):
        p = AngularPartitioner(4).fit(pts)
        ids = p.assign(pts)
        assert ids.shape == (pts.shape[0],)


def _explicit_allocation(d):
    """Split the first and the last angle axis (just ø₁ when d = 2)."""
    return [3] if d == 2 else [2] + [1] * (d - 3) + [3]


def _reference_sectors(pts, counts, bins):
    """Boundaries and ids from the full-angle transform, built from scratch."""
    _, angles = to_hyperspherical(pts)
    boundaries, ids = [], np.zeros(pts.shape[0], dtype=np.int64)
    radix = 1
    for axis in range(len(counts) - 1, -1, -1):
        k = counts[axis]
        if k == 1:
            edges = np.empty(0)
        elif bins == "quantile":
            edges = np.quantile(angles[:, axis], np.linspace(0, 1, k + 1)[1:-1])
        else:
            edges = np.linspace(0.0, MAX_ANGLE, k + 1)[1:-1]
        boundaries.insert(0, edges)
        bin_idx = np.searchsorted(edges, angles[:, axis], side="right")
        ids += np.clip(bin_idx, 0, k - 1) * radix
        radix *= k
    return boundaries, ids


class TestAngularPartialAngles:
    """Computing only split axes' angles changes no boundary and no id."""

    @pytest.mark.parametrize("d", [2, 3, 6, 8, 10])
    @pytest.mark.parametrize("bins", ["quantile", "equal-width"])
    @pytest.mark.parametrize("allocation", ["first-axis", "balanced", "explicit"])
    def test_bit_identical_to_full_angle_reference(self, d, bins, allocation):
        rng = np.random.default_rng(d)
        pts = np.vstack(
            [rng.lognormal(size=(400, d)), np.zeros((4, d)), np.eye(d), np.eye(d) * 9]
        )
        pts[::9, 0] = 0.0
        pts[::13, 1:] = 0.0
        alloc = _explicit_allocation(d) if allocation == "explicit" else allocation
        p = AngularPartitioner(8, bins=bins, allocation=alloc).fit(pts)
        counts = p.summary().detail["counts_per_angle_axis"]
        boundaries, ids = _reference_sectors(pts, counts, bins)
        assert len(p._boundaries) == len(boundaries)
        for got, want in zip(p._boundaries, boundaries):
            assert got.dtype == np.float64 and np.array_equal(got, want)
        assert np.array_equal(p.assign(pts), ids)

    @pytest.mark.parametrize("bins", ["quantile", "equal-width"])
    @pytest.mark.parametrize("allocation", ["first-axis", "balanced", [1, 2]])
    def test_negative_data_rejected_on_every_path(self, bins, allocation):
        good = np.random.default_rng(0).random((20, 3))
        bad = np.array([[1.0, 2.0, -0.5]])
        with pytest.raises(ValueError, match="non-negative"):
            AngularPartitioner(4, bins=bins, allocation=allocation).fit(bad)
        p = AngularPartitioner(4, bins=bins, allocation=allocation).fit(good)
        with pytest.raises(ValueError, match="non-negative"):
            p.assign(bad)

    def test_negative_data_rejected_with_explicit_boundaries(self):
        p = AngularPartitioner(4, boundaries=[np.array([0.5]), np.array([])])
        with pytest.raises(ValueError, match="non-negative"):
            p.fit(np.array([[1.0, 2.0, -0.5]]))

    def test_one_dimensional_data_rejected(self):
        with pytest.raises(ValueError, match="2 dimensions"):
            AngularPartitioner(4).fit(np.ones((5, 1)))


def _searchsorted_bins(edges, angles):
    """Sector bins as first written: binary search, then clamp."""
    bins = np.searchsorted(edges, angles, side="right")
    return np.clip(bins, 0, edges.size)


#: Angles drawn from a handful of values, so quantiles land on long ties.
tie_heavy_angles = arrays(
    np.float64,
    st.integers(1, 300),
    elements=st.sampled_from(
        [0.0, 1e-300, 0.25, np.pi / 4, np.pi / 4 + 1e-16, 1.0, MAX_ANGLE]
    )
    | st.floats(0, MAX_ANGLE),
)


class TestAngularFitCuts:
    """The sort-based edges and comparison bins of the fit give the same
    bits as ``np.quantile`` of the unsorted angles and ``searchsorted``."""

    @given(tie_heavy_angles, st.integers(2, 17))
    @settings(max_examples=120, deadline=None)
    def test_sorted_quantiles_equal_np_quantile_bitwise(self, angles, k):
        qs = np.linspace(0, 1, k + 1)[1:-1]
        assert np.array_equal(
            np.quantile(np.sort(angles), qs), np.quantile(angles, qs)
        )

    @given(
        tie_heavy_angles
        | arrays(np.float64, st.integers(1, 300), elements=st.floats(-1e300, 1e300)),
        st.integers(2, 17),
    )
    @settings(max_examples=200, deadline=None)
    def test_interpolated_edges_are_np_quantile_bits(self, column, k):
        """The fit's edges, read off the sorted column, carry the very
        bits of ``np.quantile`` over the unsorted column."""
        qs = np.linspace(0, 1, k + 1)[1:-1]
        got = _sorted_quantiles(np.sort(column), qs)
        want = np.quantile(column, qs)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(2, 120), st.integers(2, 4)),
            elements=st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
        ),
        st.integers(2, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_tie_heavy_fit_matches_reference(self, pts, k):
        for allocation in ("first-axis", "balanced"):
            p = AngularPartitioner(k, allocation=allocation).fit(pts)
            counts = p.summary().detail["counts_per_angle_axis"]
            boundaries, ids = _reference_sectors(pts, counts, "quantile")
            for got, want in zip(p._boundaries, boundaries):
                assert np.array_equal(got, want)
            assert np.array_equal(p.fit_assign(pts), ids)

    @pytest.mark.parametrize(
        "edges",
        [
            [0.3, 0.3, 0.9],
            [0.5],
            [0.0, MAX_ANGLE],
            [np.pi / 4] * 3,
            [0.0, 0.0, 1.0, MAX_ANGLE, MAX_ANGLE],
        ],
    )
    def test_comparison_bins_equal_searchsorted(self, edges):
        edges = np.array(edges)
        angles = np.concatenate(
            [
                edges,
                np.nextafter(edges, -np.inf),
                np.nextafter(edges, np.inf),
                [0.0, 1e-300, 0.7, MAX_ANGLE, np.pi],
            ]
        )
        p = AngularPartitioner(edges.size + 1, boundaries=[edges])
        p.fit(np.ones((1, 2)))
        got = p._sector_ids(angles[:, None], [0])
        assert got.dtype == np.int64
        assert np.array_equal(got, _searchsorted_bins(edges, angles))

    def test_comparison_bins_combine_axes_by_radix(self):
        first, last = np.array([0.4, 0.4, 1.2]), np.array([0.8])
        p = AngularPartitioner(8, boundaries=[first, np.array([]), last])
        p.fit(np.ones((1, 4)))
        rng = np.random.default_rng(0)
        angles = rng.choice([0.0, 0.4, 0.8, 1.2, MAX_ANGLE, np.pi, 0.5], size=(200, 2))
        want = _searchsorted_bins(first, angles[:, 0]) * 2 + _searchsorted_bins(
            last, angles[:, 1]
        )
        assert np.array_equal(p._sector_ids(angles, [0, 2]), want)

    def test_assign_through_angle_columns(self):
        pts = np.random.default_rng(1).lognormal(size=(5000, 5))
        p = AngularPartitioner(8).fit(pts)
        edges = p._boundaries[0]
        want = _searchsorted_bins(edges, angle_columns(pts, [0])[:, 0])
        assert np.array_equal(p.assign(pts), want)


class TestRandom:
    def test_deterministic_per_content(self):
        pts = np.random.default_rng(0).random((50, 3))
        p = RandomPartitioner(8, seed=1).fit(pts)
        assert np.array_equal(p.assign(pts), p.assign(pts))

    def test_order_independent(self):
        pts = np.random.default_rng(1).random((50, 3))
        p = RandomPartitioner(8, seed=1).fit(pts)
        perm = np.random.default_rng(2).permutation(50)
        assert np.array_equal(p.assign(pts)[perm], p.assign(pts[perm]))

    def test_seed_changes_assignment(self):
        pts = np.random.default_rng(3).random((100, 3))
        a = RandomPartitioner(8, seed=1).fit(pts).assign(pts)
        b = RandomPartitioner(8, seed=2).fit(pts).assign(pts)
        assert not np.array_equal(a, b)

    def test_roughly_balanced(self):
        pts = np.random.default_rng(4).random((4000, 3))
        p = RandomPartitioner(8, seed=0).fit(pts)
        assert load_imbalance(p.assign(pts), 8) < 1.3


class TestSizeHelpers:
    def test_partition_sizes(self):
        ids = np.array([0, 0, 1, 3])
        assert partition_sizes(ids, 5).tolist() == [2, 1, 0, 1, 0]

    def test_imbalance_perfect(self):
        assert load_imbalance(np.array([0, 1, 2, 3]), 4) == 1.0

    def test_imbalance_empty(self):
        assert load_imbalance(np.array([], dtype=int), 4) == 0.0

    def test_imbalance_skewed(self):
        assert load_imbalance(np.array([0, 0, 0, 1]), 2) == pytest.approx(1.5)
