"""Cartesian ↔ hyperspherical coordinate transform — Eq. (1) of the paper.

For a service vector ``s = (v1, …, vn)`` the paper defines the radial
coordinate and ``n−1`` angular coordinates::

    r        = sqrt(v1² + … + vn²)
    tan(ø_i) = sqrt(v_{i+1}² + … + v_n²) / v_i        for i = 1 … n−1

i.e. ``ø_i = atan2(‖(v_{i+1}, …, v_n)‖, v_i)``.  For non-negative data
(QoS attributes are non-negative after normalisation) every angle lies in
``[0, π/2]``: 0 when the suffix is all-zero, π/2 when ``v_i`` is 0 but the
suffix is not.  The all-zero vector gets angles 0 by convention.

The inverse transform follows the standard hyperspherical recursion::

    v_1 = r·cos ø_1
    v_k = r·sin ø_1 ⋯ sin ø_{k−1} · cos ø_k     (k = 2 … n−1)
    v_n = r·sin ø_1 ⋯ sin ø_{n−1}

Everything is vectorised over ``(n, d)`` arrays.  The suffix sums of
squares behind ``r`` and every ø_i come from one accumulation,
:func:`_suffix_square_sums`, shared by the full transform and by
:func:`angle_columns` (just the angle axes a partitioner splits), so both
produce bit-identical angles.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.dominance import validate_points

__all__ = [
    "to_hyperspherical",
    "from_hyperspherical",
    "angular_coordinates",
    "angle_columns",
    "MAX_ANGLE",
]

#: Upper bound of every angular coordinate for non-negative data.
MAX_ANGLE = np.pi / 2


def _orthant_points(points: np.ndarray) -> np.ndarray:
    """Validated ``(n, d)`` points the transform accepts (d ≥ 2, no negatives)."""
    pts = validate_points(points)
    if pts.shape[1] < 2:
        raise ValueError("hyperspherical transform needs at least 2 dimensions")
    if (pts < 0).any():
        raise ValueError("hyperspherical transform requires non-negative data")
    return pts


def _suffix_square_sums(pts: np.ndarray, lowest: int) -> np.ndarray:
    """Row ``k - lowest`` holds ``v_k² + … + v_n²`` (0-indexed ``k``) per point.

    Covers ``k = lowest … d-1``; the result is ``(d - lowest, n)`` so each
    row is one contiguous column of sums.  Squares are added column by
    column from the last dimension down — the exact order of a cumulative
    sum over the reversed columns — so every caller gets the same bits
    whichever suffixes it asks for.
    """
    n, d = pts.shape
    sums = np.empty((d - lowest, n))
    acc = np.square(pts[:, d - 1])
    sums[d - 1 - lowest] = acc
    for k in range(d - 2, lowest - 1, -1):
        acc = acc + np.square(pts[:, k])
        sums[k - lowest] = acc
    return sums


def to_hyperspherical(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Transform ``(n, d)`` Cartesian points to ``(r, angles)``.

    Returns
    -------
    r:
        ``(n,)`` radial coordinates.
    angles:
        ``(n, d-1)`` angular coordinates, ``angles[:, i] = ø_{i+1}``.

    Raises
    ------
    ValueError
        If any coordinate is negative (the transform's angle range and the
        angular partitioning both assume the non-negative orthant) or if
        ``d < 2`` (no angles exist in 1-D).
    """
    pts = _orthant_points(points)
    d = pts.shape[1]
    sums = _suffix_square_sums(pts, 0)
    r = np.sqrt(sums[0])
    # suffix[:, i] = sqrt(v_{i+1}² + ... + v_n²)  (0-indexed: dims i+1..d-1)
    suffix = np.sqrt(sums[1:].T)  # (n, d-1)
    angles = np.arctan2(suffix, pts[:, : d - 1])
    return r, angles


def angular_coordinates(points: np.ndarray) -> np.ndarray:
    """Just the angles (the partitioning only needs those)."""
    return to_hyperspherical(points)[1]


def angle_columns(points: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Only the angle columns ``axes`` (0-indexed ø axes) of ``points``.

    ``angle_columns(p, axes)`` equals ``to_hyperspherical(p)[1][:, axes]``
    bit for bit, but computes no other angle: the suffix sums stop at the
    lowest requested axis, and ``sqrt``/``arctan2`` run on requested
    columns only.  Raises the same ``ValueError`` as the full transform on
    negative or 1-D input, even when ``axes`` is empty.
    """
    pts = _orthant_points(points)
    n, d = pts.shape
    axes = [int(a) for a in axes]
    if any(a < 0 or a >= d - 1 for a in axes):
        raise ValueError(f"angle axes {axes} out of range for d={d}")
    out = np.empty((n, len(axes)))
    if not axes:
        return out
    lowest = min(axes)
    sums = _suffix_square_sums(pts, lowest + 1)
    for j, axis in enumerate(axes):
        out[:, j] = np.arctan2(np.sqrt(sums[axis - lowest]), pts[:, axis])
    return out


def from_hyperspherical(r: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Inverse transform: ``(n,)`` radii + ``(n, d-1)`` angles → ``(n, d)``.

    Exact round-trip with :func:`to_hyperspherical` up to floating-point
    error for non-negative inputs.
    """
    r = np.asarray(r, dtype=np.float64)
    angles = np.asarray(angles, dtype=np.float64)
    if angles.ndim == 1:
        angles = angles.reshape(1, -1)
    if r.ndim == 0:
        r = r.reshape(1)
    n, d_minus_1 = angles.shape
    if r.shape != (n,):
        raise ValueError(f"r has shape {r.shape}, expected ({n},)")
    d = d_minus_1 + 1

    out = np.empty((n, d))
    sin_running = np.ones(n)
    for k in range(d_minus_1):
        out[:, k] = r * sin_running * np.cos(angles[:, k])
        sin_running = sin_running * np.sin(angles[:, k])
    out[:, d - 1] = r * sin_running
    return out
