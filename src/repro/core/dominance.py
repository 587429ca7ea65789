"""Pareto-dominance primitives (minimisation convention).

Following the paper (§II): point ``a`` *dominates* ``b`` iff ``a`` is better
than or equal to ``b`` in every attribute dimension and strictly better in at
least one — with "better" meaning *smaller* ("the lower-valued points are
better than the higher-valued ones").

Scalar predicates are provided for clarity and as the ground truth for
property tests; the vectorised kernels (``dominates_any``,
``dominated_mask``) are the hot path used by the algorithms.  All kernels
take ``(n, d)`` float arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DominanceCounter",
    "dominance_matrix",
    "dominates",
    "dominates_any",
    "dominated_by_any",
    "dominated_mask",
    "incomparable",
    "point_matrix",
    "validate_points",
]


def point_matrix(points: np.ndarray, *, name: str = "points") -> np.ndarray:
    """Coerce to a 2-D float64 ``(n, d)`` array, ``d ≥ 1``; no NaN scan.

    :func:`validate_points` without its pass over the values, for a caller
    that hands the matrix on to an op that validates it anyway.
    """
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D (n, d), got shape {arr.shape}")
    if arr.shape[1] == 0:
        raise ValueError(f"{name} must have at least one attribute dimension")
    return arr


def validate_points(points: np.ndarray, *, name: str = "points") -> np.ndarray:
    """Coerce to a 2-D float64 array and reject NaNs.

    NaNs break dominance transitivity (every comparison is false), so they
    are rejected up-front rather than silently producing a wrong skyline.
    """
    arr = point_matrix(points, name=name)
    if np.isnan(arr).any():
        raise ValueError(f"{name} contains NaN values")
    return arr


@dataclass(slots=True)
class DominanceCounter:
    """Counts pairwise dominance tests — the work metric behind the paper's
    efficiency argument (fewer redundant dominance computations)."""

    tests: int = 0
    by_stage: dict = field(default_factory=dict)

    def add(self, count: int, stage: str = "default") -> None:
        self.tests += int(count)
        self.by_stage[stage] = self.by_stage.get(stage, 0) + int(count)

    def merge(self, other: "DominanceCounter") -> None:
        for stage, count in other.by_stage.items():
            self.add(count, stage)


def dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """True iff ``a`` dominates ``b`` (ground-truth scalar predicate)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"expected equal-length vectors, got {a.shape} vs {b.shape}")
    return bool(np.all(a <= b) and np.any(a < b))


def incomparable(a: np.ndarray, b: np.ndarray) -> bool:
    """True iff neither point dominates the other."""
    return not dominates(a, b) and not dominates(b, a)


def dominates_any(window: np.ndarray, point: np.ndarray) -> bool:
    """True iff any row of ``window`` dominates ``point``.

    The single-candidate kernel used inside BNL's inner loop: one broadcast
    comparison of the whole window against the point.
    """
    if window.shape[0] == 0:
        return False
    le = window <= point
    lt = window < point
    return bool(np.any(le.all(axis=1) & lt.any(axis=1)))


def dominated_by_any(window: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Boolean mask over ``window`` rows dominated *by* ``point``."""
    if window.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    ge = window >= point
    gt = window > point
    return ge.all(axis=1) & gt.any(axis=1)


def dominance_matrix(points: np.ndarray) -> np.ndarray:
    """Full pairwise matrix ``M[i, j] = points[i] dominates points[j]``.

    O(n²·d) memory-heavy; intended for tests and small analyses only.
    """
    pts = validate_points(points)
    le = (pts[:, None, :] <= pts[None, :, :]).all(axis=2)
    lt = (pts[:, None, :] < pts[None, :, :]).any(axis=2)
    return le & lt


def dominated_mask(
    points: np.ndarray,
    *,
    block: int = 2048,
    counter: DominanceCounter | None = None,
) -> np.ndarray:
    """Mask of points dominated by at least one other point.

    The complement is exactly the skyline.  Works blockwise so memory stays
    at ``O(block · n)`` instead of ``O(n²)``; with the default block this
    handles 100 k × 10 comfortably.
    """
    pts = validate_points(points)
    n = pts.shape[0]
    dominated = np.zeros(n, dtype=bool)
    for start in range(0, n, block):
        chunk = pts[start : start + block]  # (b, d)
        # chunk[j] dominated by pts[i]: all(pts[i] <= chunk[j]) & any(<)
        le = (pts[:, None, :] <= chunk[None, :, :]).all(axis=2)  # (n, b)
        lt = (pts[:, None, :] < chunk[None, :, :]).any(axis=2)
        dominated[start : start + chunk.shape[0]] = (le & lt).any(axis=0)
        if counter is not None:
            counter.add(n * chunk.shape[0], "dominated_mask")
    return dominated
