"""Sampling utilities shared by the synthetic data generators.

Provides the Gaussian-copula machinery behind the QWS-like generator
(:mod:`repro.services.qws`): sample correlated uniforms from a target
correlation matrix, then push them through arbitrary marginal quantile
functions.  Also small helpers (truncated normal, empirical quantile
resampling) used by both the QWS generator and the paper's dataset
extension procedure.
"""

from __future__ import annotations

from math import sqrt
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "correlated_normals",
    "gaussian_copula_uniforms",
    "nearest_correlation",
    "normal_cdf",
    "sample_with_marginals",
    "truncated_normal",
    "empirical_quantile",
]


def nearest_correlation(matrix: np.ndarray, *, eps: float = 1e-8) -> np.ndarray:
    """Project a symmetric matrix onto the valid correlation matrices.

    Clips negative eigenvalues (Higham-style one-shot projection) and
    rescales the diagonal to 1 — sufficient for hand-authored correlation
    targets that may be slightly non-PSD.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"need a square matrix, got shape {m.shape}")
    sym = (m + m.T) / 2.0
    vals, vecs = np.linalg.eigh(sym)
    vals = np.clip(vals, eps, None)
    fixed = (vecs * vals) @ vecs.T
    scale = np.sqrt(np.diag(fixed))
    fixed = fixed / np.outer(scale, scale)
    np.fill_diagonal(fixed, 1.0)
    return fixed


def gaussian_copula_uniforms(
    n: int, correlation: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``(n, d)`` uniforms whose rank-correlation follows ``correlation``.

    Standard Gaussian copula: draw correlated normals via the Cholesky
    factor of the (projected) correlation matrix, then map through Φ.
    """
    return normal_cdf(correlated_normals(n, correlation, rng))


def correlated_normals(
    n: int,
    correlation: np.ndarray,
    rng: np.random.Generator,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The copula's ``(n, d)`` standard normals, before Φ.

    Callers that map one column at a time (:func:`sample_with_marginals`,
    the QWS extension) take ``normal_cdf(z[:, j])`` per column: Φ is
    elementwise, so each column gets the bits of
    :func:`gaussian_copula_uniforms` without its full-matrix temporaries.

    ``out``, a C-contiguous ``(n, d)`` float64 array, receives the
    Cholesky product instead of a new array: the same single matmul,
    written into the caller's buffer, so the bits do not change.
    """
    corr = nearest_correlation(correlation)
    chol = np.linalg.cholesky(corr)
    return np.matmul(rng.standard_normal((n, corr.shape[0])), chol.T, out=out)


def normal_cdf(z: np.ndarray) -> np.ndarray:
    """Φ(z) via the error function; SciPy-free so the data layer only needs numpy."""
    return 0.5 * (1.0 + _erf(z / sqrt(2.0)))


def _erf(x: np.ndarray) -> np.ndarray:
    """Vectorised error function (Abramowitz–Stegun 7.1.26, |ε| ≤ 1.5e-7).

    Accurate far beyond what quantile mapping of synthetic data requires.
    """
    sign = np.sign(x)
    ax = np.abs(x)
    t = 1.0 / (1.0 + 0.3275911 * ax)
    poly = t * (
        0.254829592
        + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429)))
    )
    return sign * (1.0 - poly * np.exp(-ax * ax))


def sample_with_marginals(
    n: int,
    quantile_fns: Sequence[Callable[[np.ndarray], np.ndarray]],
    correlation: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Copula sampling: correlated uniforms → per-column quantile functions.

    One column at a time: each normal column goes through Φ, the clip and
    its marginal, and the result overwrites that column of the normals, so
    the sample needs one ``(n, d)`` matrix instead of one per step.
    """
    z = correlated_normals(n, correlation, rng)
    if z.shape[1] != len(quantile_fns):
        raise ValueError(
            f"{len(quantile_fns)} marginals for {z.shape[1]} copula columns"
        )
    for j, fn in enumerate(quantile_fns):
        # Guard against u exactly 0/1 (erf saturation), where ppf-style
        # marginals would return infinities or create atoms at the support
        # bounds.
        u = np.clip(normal_cdf(z[:, j]), 1e-12, 1.0 - 1e-12)
        z[:, j] = fn(u)
    return z


def truncated_normal(
    u: np.ndarray, mean: float, std: float, lo: float, hi: float
) -> np.ndarray:
    """Quantile function of a clipped normal (clip, not renormalised —
    mass piles at the bounds, which matches percentage-like QoS data where
    many services sit at exactly 100 %)."""
    z = np.sqrt(2.0) * _erfinv(2.0 * np.asarray(u) - 1.0)
    return np.clip(mean + std * z, lo, hi)


def _erfinv(y: np.ndarray) -> np.ndarray:
    """Vectorised inverse error function (Winitzki's approximation + one
    Newton step; plenty for sampling)."""
    y = np.clip(np.asarray(y, dtype=np.float64), -1 + 1e-12, 1 - 1e-12)
    a = 0.147
    ln = np.log(1.0 - y * y)
    term = 2.0 / (np.pi * a) + ln / 2.0
    x = np.sign(y) * np.sqrt(np.sqrt(term * term - ln / a) - term)
    # One Newton refinement: f(x) = erf(x) - y
    fx = _erf(x) - y
    dfx = 2.0 / np.sqrt(np.pi) * np.exp(-x * x)
    return x - fx / dfx


def empirical_quantile(sample: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Quantile function of an empirical sample (linear interpolation).

    This is the engine of the paper's dataset extension: "randomly
    generating QoS values … following the distribution of the QWS dataset".
    """
    sorted_sample = np.sort(np.asarray(sample, dtype=np.float64))
    if sorted_sample.size == 0:
        raise ValueError("empty sample")
    probs = (np.arange(sorted_sample.size) + 0.5) / sorted_sample.size

    def quantile(u: np.ndarray) -> np.ndarray:
        u = np.asarray(u)
        flat = u.ravel()
        # np.interp starts each bin search from the previous value's bin,
        # so values taken in sorted order find their bins in a step or two
        # instead of a binary search each.  The search only finds the bin
        # faster, never a different one, so every value keeps its bits.
        order = np.argsort(flat)
        out = np.empty(flat.shape)
        out[order] = np.interp(flat[order], probs, sorted_sample)
        return out.reshape(u.shape)

    return quantile
