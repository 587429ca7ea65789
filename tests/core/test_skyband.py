"""Tests for k-skyband queries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.dominance import DominanceCounter, dominates
from repro.core.kernels import BLOCK_CHUNK, get_kernel, sort_first_order, _sweep_chunks
from repro.core.skyband import dominator_counts, k_skyband
from repro.core.skyline import skyline, skyline_numpy

clouds = arrays(
    np.float64,
    st.tuples(st.integers(1, 60), st.integers(1, 4)),
    elements=st.floats(0, 20, allow_nan=False),
)


class TestDominatorCounts:
    def test_manual_chain(self):
        pts = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        assert dominator_counts(pts).tolist() == [0, 1, 2]

    def test_skyline_has_zero(self):
        pts = np.random.default_rng(0).random((200, 3))
        counts = dominator_counts(pts)
        sky = skyline_numpy(pts)
        assert (counts[sky] == 0).all()
        non_sky = np.setdiff1d(np.arange(200), sky)
        assert (counts[non_sky] > 0).all()

    @pytest.mark.parametrize("block", [1, 7, 4096])
    def test_block_invariant(self, block):
        pts = np.random.default_rng(1).random((150, 3))
        assert np.array_equal(
            dominator_counts(pts, block=block), dominator_counts(pts)
        )

    def test_counter(self):
        c = DominanceCounter()
        dominator_counts(np.ones((10, 2)), counter=c)
        assert c.tests == 100

    @given(clouds)
    @settings(max_examples=40)
    def test_property_matches_scalar(self, pts):
        counts = dominator_counts(pts)
        n = pts.shape[0]
        for j in range(min(n, 8)):
            expected = sum(
                1 for i in range(n) if i != j and dominates(pts[i], pts[j])
            )
            assert counts[j] == expected


class TestKSkyband:
    def test_k1_is_skyline(self):
        pts = np.random.default_rng(2).random((300, 3))
        assert np.array_equal(k_skyband(pts, 1), skyline_numpy(pts))

    def test_nested_in_k(self):
        pts = np.random.default_rng(3).random((300, 3))
        prev: set = set()
        for k in (1, 2, 4, 8):
            band = set(k_skyband(pts, k).tolist())
            assert prev <= band
            prev = band

    def test_k_large_returns_everything(self):
        pts = np.random.default_rng(4).random((50, 2))
        assert k_skyband(pts, 10_000).size == 50

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            k_skyband(np.ones((2, 2)), 0)

    def test_total_order_chain(self):
        pts = np.arange(10, dtype=float).reshape(-1, 1) @ np.ones((1, 2))
        assert k_skyband(pts, 3).tolist() == [0, 1, 2]

    @given(clouds, st.integers(1, 5))
    @settings(max_examples=40)
    def test_property_definition(self, pts, k):
        band = set(k_skyband(pts, k).tolist())
        counts = dominator_counts(pts)
        for j in range(pts.shape[0]):
            assert (j in band) == (counts[j] < k)


def _reference_band(pts, k):
    """The scalar kernel's full dominator counts, thresholded at ``k``."""
    if pts.shape[0] == 0:
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero(dominator_counts(pts, kernel="scalar") < k)


@st.composite
def band_inputs(draw):
    n = draw(st.integers(0, 80))
    d = draw(st.integers(1, 6))
    if draw(st.booleans()):
        # A small integer grid: ties on every dimension, exact duplicates.
        elements = st.integers(0, 3).map(float)
    else:
        elements = st.floats(0, 20, allow_nan=False)
    pts = draw(arrays(np.float64, (n, d), elements=elements))
    return pts, draw(st.sampled_from([1, 2, 3, 5]))


class TestBlockBandSweep:
    """The block kernel's sort-first k-skyband sweep against the reference."""

    @given(band_inputs())
    @settings(max_examples=150, deadline=None)
    def test_property_matches_scalar_counts(self, case):
        pts, k = case
        assert np.array_equal(
            k_skyband(pts, k, kernel="block"), _reference_band(pts, k)
        )

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_duplicate_rows(self, k):
        rng = np.random.default_rng(k)
        pts = rng.random((120, 3))
        pts[60:] = pts[:60]
        pts[::7] = pts[0]
        assert np.array_equal(
            k_skyband(pts, k, kernel="block"), _reference_band(pts, k)
        )

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_integer_grid_ties(self, k):
        pts = np.random.default_rng(10 + k).integers(0, 4, (300, 4)).astype(float)
        assert np.array_equal(
            k_skyband(pts, k, kernel="block"), _reference_band(pts, k)
        )

    def test_k_at_least_n_keeps_everything(self):
        pts = np.arange(12, dtype=float).reshape(-1, 1) @ np.ones((1, 3))
        for k in (12, 13, 100):
            assert k_skyband(pts, k, kernel="block").tolist() == list(range(12))
        assert k_skyband(pts, 11, kernel="block").tolist() == list(range(11))

    def test_empty_input(self):
        for kernel in ("scalar", "block"):
            assert k_skyband(np.empty((0, 3)), 2, kernel=kernel).size == 0

    def test_straddles_every_sweep_chunk_boundary(self):
        # 63/64/65, 191/192/193, ... through the end of the first steady
        # BLOCK_CHUNK step.
        bounds = _sweep_chunks(3 * BLOCK_CHUNK)
        first_full = next(
            i for i, (a, b) in enumerate(bounds) if b - a == BLOCK_CHUNK
        )
        stops = [stop for _, stop in bounds[: first_full + 1]]
        sizes = sorted({b + delta for b in stops for delta in (-1, 0, 1)})
        assert {63, 64, 65, 191, 192, 193} <= set(sizes)
        for n in sizes:
            pts = np.random.default_rng(n).random((n, 3))
            for k in (2, 3):
                assert np.array_equal(
                    k_skyband(pts, k, kernel="block"), _reference_band(pts, k)
                ), (n, k)

    @pytest.mark.parametrize("kernel", ["scalar", "block"])
    def test_k1_equals_skyline(self, kernel):
        for d in (1, 2, 4, 6):
            pts = np.random.default_rng(d).random((400, d))
            assert np.array_equal(
                k_skyband(pts, 1, kernel=kernel), skyline(pts, kernel=kernel)
            )

    def test_scalar_and_block_sweeps_agree(self):
        pts = np.random.default_rng(7).integers(0, 5, (500, 3)).astype(float)
        ordered = pts[sort_first_order(pts)]
        for k in (1, 2, 4):
            masks = [
                get_kernel(name).sweep_sorted(ordered, k=k)
                for name in ("scalar", "block")
            ]
            assert np.array_equal(masks[0], masks[1]), k

    def test_k1_sweep_counts_like_the_skyline(self):
        pts = np.random.default_rng(8).random((2000, 4))
        band, sky = DominanceCounter(), DominanceCounter()
        k_skyband(pts, 1, kernel="block", counter=band)
        get_kernel("block").skyline(pts, counter=sky)
        assert band.tests == sky.tests > 0

    def test_invalid_k_rejected_by_the_sweep(self):
        for name in ("scalar", "block"):
            with pytest.raises(ValueError, match="k must be"):
                get_kernel(name).sweep_sorted(np.ones((3, 2)), k=0)

