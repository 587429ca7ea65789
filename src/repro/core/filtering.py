"""Filter-point selection — the broadcast pruning stage (Ciaccia–Martinenghi).

*Optimization Strategies for Parallel Computation of Skylines* shows that a
small, well-chosen set of **filter points** broadcast to every partition
prunes most of the input before any partition-local skyline work: a point
dominated by any filter point cannot be in the skyline and need never enter
the shuffle.  This module picks that set:

1. draw a sample of the input with a fixed seed (one pass, deterministic),
2. keep only the sample's own skyline (a dominated sample point can never
   out-prune its dominator),
3. rank the sample-skyline points by the volume of their dominance region
   ``Π (upper_i − v_i)`` — the fraction of the data box a filter point
   dominates under independence, the paper's geometric criterion — and
   keep the top ``k``.

Because every filter point is an actual input row, pruning is *exact*: a
pruned point is dominated by a surviving data point, so the global skyline
is unchanged — only redundant shuffle traffic and local dominance work
disappear.  The map-side application is
:meth:`repro.core.kernels.DominanceKernel.filter_survivors`; counts land in
the ``prune.*`` counter family.
"""

from __future__ import annotations

import numpy as np

from repro.core.dominance import validate_points
from repro.core.kernels import DominanceKernel, get_kernel

__all__ = [
    "DEFAULT_FILTER_K",
    "DEFAULT_FILTER_SAMPLE",
    "compute_filter_points",
]

#: Default filter-set size: small enough to broadcast to every map task for
#: free, large enough to cover the skyline's spread at d ≤ 10.
DEFAULT_FILTER_K = 32

#: Default sample size the filter set is chosen from.
DEFAULT_FILTER_SAMPLE = 2048


def compute_filter_points(
    points: np.ndarray,
    *,
    k: int = DEFAULT_FILTER_K,
    sample: int = DEFAULT_FILTER_SAMPLE,
    kernel: str | DominanceKernel | None = None,
) -> np.ndarray:
    """Choose up to ``k`` filter rows from ``points``.

    Returns a ``(k', d)`` array with ``k' ≤ k`` (the sample skyline can be
    smaller than ``k``).  ``k = 0`` returns an empty ``(0, d)`` array —
    pruning disabled.  Deterministic for a given ``(points, k, sample)``.
    """
    pts = validate_points(points)
    n, d = pts.shape
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if sample < 1:
        raise ValueError(f"sample must be >= 1, got {sample}")
    if k == 0 or n == 0:
        return np.empty((0, d))

    if n > sample:
        # A fixed seed: one input always yields one filter set.
        rng = np.random.default_rng(0)
        drawn = pts[rng.choice(n, size=sample, replace=False)]
    else:
        drawn = pts
    knl = get_kernel(kernel)
    candidates = drawn[knl.skyline(drawn, stage="filter-select")]

    ranks = _pruning_rank(candidates)
    # Strongest pruner first: map-side application prescreens against the
    # head of the filter array before paying for the full-width pass.
    return np.ascontiguousarray(candidates[ranks[:k]])


def _pruning_rank(candidates: np.ndarray) -> np.ndarray:
    """Candidate indices ordered best-pruner first (stable, deterministic)."""
    upper = candidates.max(axis=0, keepdims=True)
    gaps = np.clip(upper - candidates, 0.0, None)
    # log-volume of the dominated box; -inf (a coordinate on the upper
    # face) simply ranks last, which is exactly right: that face prunes
    # nothing in that dimension.
    with np.errstate(divide="ignore"):
        power = np.log(gaps).sum(axis=1)
    return np.argsort(-power, kind="stable")
