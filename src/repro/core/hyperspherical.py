"""Cartesian ↔ hyperspherical coordinate transform — Eq. (1) of the paper.

For a service vector ``s = (v1, …, vn)`` the paper defines the radial
coordinate and ``n−1`` angular coordinates::

    r        = sqrt(v1² + … + vn²)
    tan(ø_i) = sqrt(v_{i+1}² + … + v_n²) / v_i        for i = 1 … n−1

i.e. ``ø_i = atan2(‖(v_{i+1}, …, v_n)‖, v_i)``.  For non-negative data
(QoS attributes are non-negative after normalisation) every angle lies in
``[0, π/2]``: 0 when the suffix is all-zero, π/2 when ``v_i`` is 0 but the
suffix is not.  The all-zero vector gets angles 0 by convention, and a
coordinate of ``-0.0`` counts as ``0`` (it would otherwise turn an angle
of 0 into π).

The inverse transform follows the standard hyperspherical recursion::

    v_1 = r·cos ø_1
    v_k = r·sin ø_1 ⋯ sin ø_{k−1} · cos ø_k     (k = 2 … n−1)
    v_n = r·sin ø_1 ⋯ sin ø_{n−1}

Everything is vectorised over ``(n, d)`` arrays.  The suffix norms
behind ``r`` and every ø_i come from one accumulation,
:func:`_suffix_norms`, shared by the full transform and by
:func:`angle_columns` (just the angle axes a partitioner splits), so both
produce bit-identical angles.  A suffix whose squares leave the float
range (a coordinate above ~1.34e154) is summed again scaled by its largest
coordinate, as ``hypot`` does; every other suffix keeps the plain sums.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.dominance import validate_points

__all__ = [
    "to_hyperspherical",
    "from_hyperspherical",
    "angle_columns",
    "MAX_ANGLE",
]

#: Upper bound of every angular coordinate for non-negative data.
MAX_ANGLE = np.pi / 2

#: Rows per block of :func:`_suffix_square_sums` (8 columns × 4096 rows of
#: float64 is 256 KiB, an L2-sized working set).
_SUM_BLOCK = 4096


def _orthant_points(points: np.ndarray) -> np.ndarray:
    """Validated ``(n, d)`` points the transform accepts (d ≥ 2, no negatives)."""
    pts = validate_points(points)
    if pts.shape[1] < 2:
        raise ValueError("hyperspherical transform needs at least 2 dimensions")
    if (pts < 0).any():
        raise ValueError("hyperspherical transform requires non-negative data")
    return pts


def _unsigned_zeros(values: np.ndarray) -> np.ndarray:
    """``values`` with ``-0.0`` turned into ``+0.0``, every other value as is.

    ``arctan2(+0, -0)`` is π, not 0: a signed zero in the ``x`` argument
    would put an all-zero suffix outside ``[0, π/2]``.  ``x + 0.0`` is
    ``x`` bit for bit for every other float.
    """
    return values + 0.0


def _suffix_square_sums(pts: np.ndarray, lowest: int) -> np.ndarray:
    """Row ``k - lowest`` holds ``v_k² + … + v_n²`` (0-indexed ``k``) per point.

    Covers ``k = lowest … d-1``; the result is ``(d - lowest, n)`` so each
    row is one contiguous column of sums.  Squares are added column by
    column from the last dimension down — the exact order of a cumulative
    sum over the reversed columns — so every caller gets the same bits
    whichever suffixes it asks for.  The adds run over blocks of
    ``_SUM_BLOCK`` rows, so each block's strided column reads stay in
    cache instead of streaming the whole matrix once per dimension;
    blocking changes no add, only the order the rows are visited in.
    A square or sum past the float range reads ``inf``, silently:
    :func:`_suffix_norms` repairs those rows.
    """
    n, d = pts.shape
    sums = np.empty((d - lowest, n))
    square = np.empty(min(n, _SUM_BLOCK))
    with np.errstate(over="ignore"):
        for start in range(0, n, _SUM_BLOCK):
            stop = min(start + _SUM_BLOCK, n)
            block = pts[start:stop]
            np.square(block[:, d - 1], out=sums[d - 1 - lowest, start:stop])
            for k in range(d - 2, lowest - 1, -1):
                sq = np.square(block[:, k], out=square[: stop - start])
                np.add(
                    sums[k + 1 - lowest, start:stop], sq, out=sums[k - lowest, start:stop]
                )
    return sums


def _suffix_norms(pts: np.ndarray, suffixes: Sequence[int]) -> np.ndarray:
    """Row ``j`` holds ``‖(v_k, …, v_n)‖`` per point, ``k = suffixes[j]``.

    The square roots of :func:`_suffix_square_sums`, bit for bit, wherever
    those sums stay finite.  The first row of the sums holds each point's
    largest one, so an ``inf`` there names every row that overflowed.  A
    row with an infinite coordinate is unbounded and keeps its ``inf``
    norms.  In any other overflowed row, each infinite norm is summed again
    from its own suffix divided by that suffix's largest coordinate, then
    scaled back after the root (as ``hypot`` does).  Scaling by the suffix's
    own maximum, not the row's, keeps a row's small suffixes from
    underflowing and makes every norm depend on its suffix alone, so
    :func:`angle_columns` still matches the full transform bit for bit.
    """
    lowest = min(suffixes)
    sums = _suffix_square_sums(pts, lowest)
    norms = np.empty((len(suffixes), pts.shape[0]))
    for j, k in enumerate(suffixes):
        np.sqrt(sums[k - lowest], out=norms[j])
    over = np.flatnonzero(np.isinf(sums[0]))
    if over.size:
        over = over[np.isfinite(pts[over]).all(axis=1)]
    for j, k in enumerate(suffixes):
        if not over.size:
            break
        hit = over[np.isinf(norms[j, over])]
        if hit.size:
            suffix = pts[hit, k:]
            scale = suffix.max(axis=1)
            scaled = _suffix_square_sums(suffix / scale[:, None], 0)[0]
            with np.errstate(over="ignore"):
                norms[j, hit] = np.sqrt(scaled) * scale
    return norms


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
    norms = _suffix_norms(pts, range(d))
    r = norms[0]
    # suffix[:, i] = sqrt(v_{i+1}² + ... + v_n²)  (0-indexed: dims i+1..d-1)
    suffix = norms[1:].T  # (n, d-1)
    angles = np.arctan2(suffix, _unsigned_zeros(pts[:, : d - 1]))
    return r, angles


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
    norms = _suffix_norms(pts, [axis + 1 for axis in axes])
    for j, axis in enumerate(axes):
        out[:, j] = np.arctan2(norms[j], _unsigned_zeros(pts[:, axis]))
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
