"""Tests for copula sampling and marginal helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.distributions import (
    _erf,
    _erfinv,
    correlated_normals,
    empirical_quantile,
    nearest_correlation,
    normal_cdf,
    sample_with_marginals,
)


def gaussian_copula_uniforms(n, correlation, rng):
    """The copula's uniforms: Φ of its correlated normals."""
    return normal_cdf(correlated_normals(n, correlation, rng))


class TestErf:
    def test_known_values(self):
        assert _erf(np.array([0.0]))[0] == pytest.approx(0.0, abs=1e-7)
        assert _erf(np.array([1.0]))[0] == pytest.approx(0.8427007929, abs=2e-7)
        assert _erf(np.array([-1.0]))[0] == pytest.approx(-0.8427007929, abs=2e-7)

    def test_against_scipy(self):
        from scipy.special import erf as scipy_erf

        x = np.linspace(-4, 4, 200)
        assert np.allclose(_erf(x), scipy_erf(x), atol=2e-7)

    def test_erfinv_round_trip(self):
        y = np.linspace(-0.999, 0.999, 100)
        assert np.allclose(_erf(_erfinv(y)), y, atol=1e-6)


class TestNearestCorrelation:
    def test_valid_matrix_unchanged(self):
        m = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert np.allclose(nearest_correlation(m), m, atol=1e-9)

    def test_diagonal_restored(self):
        m = np.array([[1.0, 0.3], [0.3, 1.0]])
        out = nearest_correlation(m)
        assert np.allclose(np.diag(out), 1.0)

    def test_non_psd_projected(self):
        # Correlations (1,2)=0.9, (1,3)=0.9, (2,3)=-0.9 are jointly infeasible.
        m = np.array(
            [[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]]
        )
        out = nearest_correlation(m)
        vals = np.linalg.eigvalsh(out)
        assert vals.min() >= -1e-10
        np.linalg.cholesky(out + 1e-12 * np.eye(3))  # must not raise

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            nearest_correlation(np.ones((2, 3)))


class TestCopula:
    def test_uniform_marginals(self):
        rng = np.random.default_rng(0)
        corr = np.array([[1.0, 0.6], [0.6, 1.0]])
        u = gaussian_copula_uniforms(20_000, corr, rng)
        assert u.shape == (20_000, 2)
        assert 0.0 <= u.min() and u.max() <= 1.0
        for j in range(2):
            assert abs(u[:, j].mean() - 0.5) < 0.02
            assert abs(np.quantile(u[:, j], 0.25) - 0.25) < 0.02

    def test_rank_correlation_matches_target(self):
        rng = np.random.default_rng(1)
        corr = np.array([[1.0, 0.7], [0.7, 1.0]])
        u = gaussian_copula_uniforms(30_000, corr, rng)
        observed = np.corrcoef(u, rowvar=False)[0, 1]
        # Uniform-scale (Spearman-ish) correlation is slightly below the
        # normal-scale target: rho_s = 6/pi * arcsin(rho/2).
        expected = 6 / np.pi * np.arcsin(0.7 / 2)
        assert observed == pytest.approx(expected, abs=0.03)

    def test_independent_when_identity(self):
        rng = np.random.default_rng(2)
        u = gaussian_copula_uniforms(20_000, np.eye(3), rng)
        c = np.corrcoef(u, rowvar=False)
        off = c[~np.eye(3, dtype=bool)]
        assert np.abs(off).max() < 0.03


class TestSampleWithMarginals:
    def test_marginals_applied(self):
        rng = np.random.default_rng(3)
        out = sample_with_marginals(
            5_000,
            [lambda u: u * 10, lambda u: 100 - u * 100],
            np.eye(2),
            rng,
        )
        assert 0 <= out[:, 0].min() and out[:, 0].max() <= 10
        assert 0 <= out[:, 1].min() and out[:, 1].max() <= 100

    def test_mismatched_marginal_count(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            sample_with_marginals(10, [lambda u: u], np.eye(2), rng)

    def test_no_exact_zero_or_one_uniforms(self):
        rng = np.random.default_rng(5)
        captured = {}

        def probe(u):
            captured["u"] = u
            return u

        sample_with_marginals(50_000, [probe], np.eye(1), rng)
        assert captured["u"].min() > 0.0
        assert captured["u"].max() < 1.0


class TestEmpiricalQuantile:
    def test_reproduces_sample_range(self):
        sample = np.array([1.0, 2.0, 5.0, 10.0])
        q = empirical_quantile(sample)
        u = np.linspace(0, 1, 100)
        out = q(u)
        assert out.min() >= 1.0 and out.max() <= 10.0

    def test_median(self):
        sample = np.arange(1001, dtype=float)
        q = empirical_quantile(sample)
        assert q(np.array([0.5]))[0] == pytest.approx(500, abs=1)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            empirical_quantile(np.array([]))

    @given(
        data=st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=50),
        u=st.floats(0, 1),
    )
    @settings(max_examples=60)
    def test_property_output_within_hull(self, data, u):
        q = empirical_quantile(np.array(data))
        out = q(np.array([u]))[0]
        assert min(data) - 1e-9 <= out <= max(data) + 1e-9

    @given(
        data=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=60),
        u=st.lists(
            st.floats(0, 1) | st.sampled_from([0.0, 0.5, 1.0, 1e-12]), max_size=80
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_sorted_order_interpolation_keeps_the_bits(self, data, u):
        """Values interpolated in sorted order carry the bits of one
        ``np.interp`` over the unsorted values."""
        sample = np.sort(np.array(data))
        probs = (np.arange(sample.size) + 0.5) / sample.size
        u = np.array(u, dtype=np.float64)
        got = empirical_quantile(np.array(data))(u)
        want = np.interp(u, probs, sample)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
