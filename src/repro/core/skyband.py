"""K-skyband queries — a skyline generalisation.

A standard relaxation of the skyline operator from the literature the
paper builds on (Papadias et al. define it alongside BBS): the
**k-skyband** is the set of points dominated by *fewer than k* other
points — ``k = 1`` is exactly the skyline; larger ``k`` gives services
that are near-optimal, useful when the strict skyline is too small or
when robustness to measurement noise matters.

The pairwise counting runs through the :mod:`repro.core.kernels` seam
(:meth:`~repro.core.kernels.DominanceKernel.dominator_counts`) — counts
are exact integers, so every backend returns the same answers.  Under a batch
kernel :func:`k_skyband` skips the full counts: it sorts sort-first and
runs the kernel's k-skyband sweep, which stops counting a point at ``k``.
"""

from __future__ import annotations

import numpy as np

from repro.core.dominance import DominanceCounter, validate_points
from repro.core.kernels import DominanceKernel, get_kernel, sort_first_order

__all__ = ["dominator_counts", "k_skyband"]


def dominator_counts(
    points: np.ndarray,
    *,
    block: int = 2048,
    counter: DominanceCounter | None = None,
    kernel: str | DominanceKernel | None = None,
) -> np.ndarray:
    """Number of points dominating each point (0 for skyline members)."""
    return get_kernel(kernel).dominator_counts(
        points, block=block, counter=counter, stage="skyband"
    )


def k_skyband(
    points: np.ndarray,
    k: int,
    *,
    block: int = 2048,
    counter: DominanceCounter | None = None,
    kernel: str | DominanceKernel | None = None,
) -> np.ndarray:
    """Ascending indices of points dominated by fewer than ``k`` others.

    ``k_skyband(points, 1)`` equals the skyline; skybands are nested in
    ``k`` (each is a superset of the previous).  A batch kernel answers
    with :func:`~repro.core.kernels.sort_first_order` plus
    :meth:`~repro.core.kernels.DominanceKernel.sweep_sorted` at ``k`` —
    each point is counted only against the band kept before it, and
    dropped at its ``k``-th dominator.  The scalar kernel counts every
    point's dominators in full (:func:`dominator_counts`, the reference);
    the ``block`` argument only sets the chunk size of those counts.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    knl = get_kernel(kernel)
    if knl.batch:
        pts = validate_points(points)
        if pts.shape[0] == 0:
            return np.empty(0, dtype=np.intp)
        order = sort_first_order(pts)
        mask = knl.sweep_sorted(pts[order], k=k, counter=counter, stage="skyband")
        return np.sort(order[mask]).astype(np.intp)
    counts = dominator_counts(points, block=block, counter=counter, kernel=knl)
    return np.flatnonzero(counts < k).astype(np.intp)
