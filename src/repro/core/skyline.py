"""Unified single-machine skyline API.

``skyline(points, algorithm=...)`` dispatches to one of the library's
implementations and always returns ascending input indices, so algorithms
are interchangeable and cross-checkable:

* ``"bnl"`` — block-nested-loops (the paper's choice), :mod:`repro.core.bnl`
* ``"sfs"`` — sort-filter-skyline, :mod:`repro.core.sfs`

:func:`skyline_numpy` is the brute-force vectorised reference (complement
of :func:`repro.core.dominance.dominated_mask`) both are checked against.

For distributed execution see :mod:`repro.core.mr_skyline`.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from repro.core.bnl import bnl_skyline
from repro.core.dominance import DominanceCounter, dominated_mask, validate_points
from repro.core.sfs import sfs_skyline

__all__ = ["Algorithm", "skyline", "skyline_numpy"]

Algorithm = Literal["bnl", "sfs"]

_ALGORITHMS = ("bnl", "sfs")


def skyline_numpy(
    points: np.ndarray, *, counter: DominanceCounter | None = None
) -> np.ndarray:
    """Brute-force reference: indices of points dominated by nobody."""
    pts = validate_points(points)
    # The oracle the parity suite checks kernels *against* — it must stay
    # kernel-independent.  # repro: allow[kernel-seam]
    mask = ~dominated_mask(pts, counter=counter)
    return np.flatnonzero(mask).astype(np.intp)


def skyline(
    points: np.ndarray,
    *,
    algorithm: Algorithm = "bnl",
    counter: DominanceCounter | None = None,
    **kwargs,
) -> np.ndarray:
    """Ascending input indices of the skyline of ``points``.

    Extra keyword arguments are forwarded to the chosen algorithm (e.g.
    ``window_size`` for BNL, ``score`` for SFS, ``kernel`` for either —
    the :mod:`repro.core.kernels` backend selector).
    """
    if algorithm == "bnl":
        return bnl_skyline(points, counter=counter, **kwargs).indices
    if algorithm == "sfs":
        return sfs_skyline(points, counter=counter, **kwargs).indices
    raise ValueError(f"unknown algorithm {algorithm!r}; choose from {_ALGORITHMS}")
