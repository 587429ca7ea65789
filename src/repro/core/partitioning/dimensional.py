"""Dimensional (1-D slab) partitioning — the MR-Dim scheme (§III-A).

"Only the QoS parameter values in one dimension are used to do the
partitioning […] the range of each partition in dimension d is equal to
Vmax / Np" — equal-width slabs along a single chosen attribute.  Points at
or beyond ``Vmax`` (possible when assigning data not seen at fit time)
clamp into the last slab.

Equal-width slabs are the paper's literal scheme and the default; on
heavy-tailed attributes (QWS response time) they are severely unbalanced,
so a ``bins="quantile"`` mode (equal-count slabs) is provided as the
load-balanced variant used in ablation comparisons.
"""

from __future__ import annotations

from typing import Literal, Mapping

import numpy as np

from repro.core.partitioning.base import SpacePartitioner

__all__ = ["DimensionalPartitioner"]

Bins = Literal["equal-width", "quantile"]


class DimensionalPartitioner(SpacePartitioner):
    """Slabs along one dimension.

    Parameters
    ----------
    num_partitions:
        Number of slabs ``Np``.
    dim:
        Attribute index used for slicing (the paper slices on response
        time, its first attribute; default 0).
    bins:
        ``"equal-width"`` (paper) or ``"quantile"`` (equal-count ablation).
    """

    scheme = "dim"

    def __init__(
        self, num_partitions: int, dim: int = 0, *, bins: Bins = "equal-width"
    ) -> None:
        super().__init__(num_partitions)
        if dim < 0:
            raise ValueError(f"dim must be >= 0, got {dim}")
        if bins not in ("equal-width", "quantile"):
            raise ValueError(f"unknown bins mode {bins!r}")
        self.dim = dim
        self.bins = bins
        self._vmax: float | None = None
        self._width: float | None = None
        self._edges: np.ndarray | None = None

    def _fit(self, points: np.ndarray) -> None:
        if self.dim >= points.shape[1]:
            raise ValueError(
                f"dim={self.dim} out of range for {points.shape[1]}-dimensional data"
            )
        column = points[:, self.dim]
        vmax = float(column.max())
        self._vmax = vmax
        # Degenerate all-zero column: one slab catches everything.  A
        # subnormal vmax can underflow the division to 0, which is equally
        # degenerate — also collapse it to a single slab.
        width = vmax / self.num_partitions if vmax > 0 else np.inf
        self._width = width if width > 0 else np.inf
        if self.bins == "quantile":
            qs = np.linspace(0.0, 1.0, self.num_partitions + 1)[1:-1]
            self._edges = np.quantile(column, qs)
        else:
            self._edges = None

    def _assign(self, points: np.ndarray) -> np.ndarray:
        if self.dim >= points.shape[1]:
            raise ValueError(
                f"dim={self.dim} out of range for {points.shape[1]}-dimensional data"
            )
        column = points[:, self.dim]
        last = self.num_partitions - 1
        if self._edges is not None:
            return np.clip(np.searchsorted(self._edges, column, side="right"), 0, last)
        if np.isinf(self._width):
            return np.zeros(column.shape[0], dtype=np.int64)
        # Clip in floating point before the cast: a quotient beyond the
        # int64 range has no defined conversion.  Over a subnormal width
        # the quotient may overflow to ±inf, which the clip also handles.
        with np.errstate(over="ignore"):
            scaled = np.floor(column / self._width)
        return np.clip(scaled, 0, last).astype(np.int64)

    def _detail(self) -> Mapping[str, object]:
        return {
            "dim": self.dim,
            "bins": self.bins,
            "vmax": self._vmax,
            "slab_width": self._width if self.bins == "equal-width" else None,
            "edges": None if self._edges is None else self._edges.tolist(),
        }

    def _trace_attrs(self) -> Mapping[str, object]:
        return {"dim": self.dim, "bins": self.bins, "slabs": self.num_partitions}
