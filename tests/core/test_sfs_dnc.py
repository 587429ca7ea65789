"""Tests for the SFS skyline algorithm and its monotone scores."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.dominance import DominanceCounter
from repro.core.sfs import monotone_score, sfs_skyline
from repro.core.skyline import skyline_numpy

clouds = arrays(
    np.float64,
    st.tuples(st.integers(1, 80), st.integers(1, 5)),
    elements=st.floats(0, 50, allow_nan=False),
)


class TestMonotoneScore:
    def test_sum(self):
        pts = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert monotone_score(pts, "sum").tolist() == [3.0, 7.0]

    def test_entropy_positive_and_shifted(self):
        pts = np.array([[10.0, 20.0], [30.0, 40.0]])
        scores = monotone_score(pts, "entropy")
        assert scores[0] < scores[1]

    def test_unknown_score_rejected(self):
        with pytest.raises(ValueError):
            monotone_score(np.ones((1, 2)), "magic")  # type: ignore[arg-type]

    @given(
        a=arrays(np.float64, 4, elements=st.floats(0, 10, allow_nan=False)),
        b=arrays(np.float64, 4, elements=st.floats(0, 10, allow_nan=False)),
    )
    @settings(max_examples=60)
    def test_property_scores_respect_dominance(self, a, b):
        from repro.core.dominance import dominates

        pts = np.vstack([a, b])
        for name in ("sum", "entropy"):
            s = monotone_score(pts, name)  # type: ignore[arg-type]
            if dominates(a, b):
                # Weak inequality only: float rounding can collapse the
                # strict gap (e.g. 1.0 vs 1.0 + 1e-99); SFS handles those
                # ties with its lexicographic tiebreak.
                assert s[0] <= s[1]


class TestSFS:
    def test_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        pts = rng.random((400, 4))
        assert np.array_equal(sfs_skyline(pts).indices, skyline_numpy(pts))

    def test_entropy_score_same_result(self):
        rng = np.random.default_rng(1)
        pts = rng.random((200, 3))
        assert np.array_equal(
            sfs_skyline(pts, score="entropy").indices, sfs_skyline(pts).indices
        )

    def test_custom_callable_score(self):
        rng = np.random.default_rng(2)
        pts = rng.random((100, 3))
        result = sfs_skyline(pts, score=lambda p: p.sum(axis=1))
        assert np.array_equal(result.indices, skyline_numpy(pts))

    def test_bad_score_shape_rejected(self):
        with pytest.raises(ValueError):
            sfs_skyline(np.ones((3, 2)), score=lambda p: np.zeros((3, 2)))

    def test_duplicates_all_kept(self):
        pts = np.tile([2.0, 3.0], (4, 1))
        assert sfs_skyline(pts).indices.tolist() == [0, 1, 2, 3]

    def test_tests_bounded_by_candidates_times_skyline(self):
        # SFS's window holds only skyline points, so the per-candidate cost
        # is bounded by the final skyline size.
        rng = np.random.default_rng(3)
        pts = rng.random((500, 3))
        result = sfs_skyline(pts)
        assert result.dominance_tests <= 500 * result.indices.size

    def test_float_rounding_tie_with_dominance(self):
        # Regression: sums of (1e-99, 1) and (0, 1) both round to 1.0, yet
        # the second point dominates the first; the lexicographic tiebreak
        # must order the dominator first.
        pts = np.array([[1e-99, 1.0], [0.0, 1.0]])
        assert sfs_skyline(pts).indices.tolist() == [1]

    def test_counter(self):
        counter = DominanceCounter()
        sfs_skyline(np.random.default_rng(4).random((50, 2)), counter=counter)
        assert counter.by_stage.get("sfs", 0) > 0

    @given(clouds)
    @settings(max_examples=80, deadline=None)
    def test_property_matches_bruteforce(self, pts):
        assert np.array_equal(sfs_skyline(pts).indices, skyline_numpy(pts))
