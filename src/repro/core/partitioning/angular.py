"""Angular partitioning — the paper's new MR-Angle scheme (§III-C).

Points are transformed to hyperspherical coordinates (Eq. 1, implemented in
:mod:`repro.core.hyperspherical`) and the space is divided into sectors
along the ``n−1`` *angular* coordinates only — the radial coordinate plays
no role, so every sector is a cone from the origin.  That is exactly why the
scheme works: each cone slices through the whole quality range, so every
sector contains both near-origin (high-quality) and far-origin points, local
skylines stay small, and the Reduce-stage merge has little redundant work.

Two layout choices generalise the paper's 2-D picture (Figure 3c, a fan of
N sectors) to n dimensions; both are configurable, with defaults chosen by
measurement (see DESIGN.md §5):

* **allocation** — how the sector budget spreads over the n−1 angle axes.
  ``"first-axis"`` (default) puts all N sectors along ø₁, the direct
  generalisation of the 2-D fan; ``"balanced"`` mimics MR-Grid's
  balanced-budget rule over the angle subspace ("we modify the grid
  partitioning over the n−1 subspaces"); an explicit per-axis count list is
  also accepted.
* **bins** — boundary placement per axis.  ``"quantile"`` (default) uses
  angle quantiles of the fit data, so sectors hold equal point counts;
  ``"equal-width"`` divides ``[0, π/2]`` evenly, which matches the 2-D
  illustration but collapses in high dimensions, where angular coordinates
  concentrate near π/2 (a ten-dimensional suffix norm dwarfs any single
  coordinate, so ø₁ ≈ π/2 for almost every point).

Only *split* axes (more than one sector) matter to a sector id, so
``fit`` and ``assign`` compute just those angle columns
(:func:`~repro.core.hyperspherical.angle_columns`) — under the default
``"first-axis"`` allocation that is ø₁ alone.  Quantile bins need those
very columns to place their edges, so a quantile fit also yields the fit
points' sector ids, which ``fit_assign`` returns without a second pass.
"""

from __future__ import annotations

from typing import Literal, Mapping, Sequence

import numpy as np

from repro.core.hyperspherical import MAX_ANGLE, angle_columns
from repro.core.partitioning.base import SpacePartitioner
from repro.core.partitioning.grid import balanced_axis_counts

__all__ = ["AngularPartitioner"]

Bins = Literal["equal-width", "quantile"]
Allocation = Literal["first-axis", "balanced"]


class AngularPartitioner(SpacePartitioner):
    """Hyperspherical sectors over the angular coordinates.

    Parameters
    ----------
    num_partitions:
        Requested sector budget.  Exact under ``"first-axis"`` allocation;
        under ``"balanced"`` the effective count is the largest per-axis
        product ≤ the budget.
    bins:
        Boundary placement: ``"quantile"`` (default, load-balanced) or
        ``"equal-width"`` (the 2-D paper illustration).
    allocation:
        ``"first-axis"`` (default), ``"balanced"``, or an explicit sequence
        of per-angle-axis sector counts.
    boundaries:
        Explicit per-axis boundary-angle arrays (each sorted ascending,
        ``k−1`` edges for ``k`` sectors on that axis), overriding ``bins``.
        Used e.g. by the §IV theory benchmark, whose closed forms assume
        the paper's equal-*area* square sectors (boundary slopes 1/2, 1, 2)
        rather than equal angles.
    """

    scheme = "angle"

    def __init__(
        self,
        num_partitions: int,
        *,
        bins: Bins = "quantile",
        allocation: Allocation | Sequence[int] = "first-axis",
        boundaries: Sequence[np.ndarray] | None = None,
    ) -> None:
        super().__init__(num_partitions)
        if bins not in ("equal-width", "quantile"):
            raise ValueError(f"unknown bins mode {bins!r}")
        if boundaries is not None:
            boundaries = [np.asarray(b, dtype=np.float64) for b in boundaries]
            for b in boundaries:
                if b.ndim != 1 or (np.diff(b) < 0).any():
                    raise ValueError(
                        "each boundary array must be 1-D and sorted ascending"
                    )
                # NaN slips through the sortedness test (every comparison
                # is False) and would make the sector bins meaningless.
                if np.isnan(b).any():
                    raise ValueError("boundary arrays must not contain NaN")
        self._explicit_boundaries = boundaries
        if isinstance(allocation, str):
            if allocation not in ("first-axis", "balanced"):
                raise ValueError(f"unknown allocation {allocation!r}")
        else:
            allocation = [int(c) for c in allocation]
            if any(c < 1 for c in allocation):
                raise ValueError(f"axis counts must be >= 1, got {allocation}")
        self._requested = num_partitions
        self.bins = bins
        self.allocation = allocation
        self._counts: list[int] | None = None
        self._radix: np.ndarray | None = None
        self._boundaries: list[np.ndarray] | None = None

    def _axis_counts(self, n_axes: int) -> list[int]:
        if isinstance(self.allocation, list):
            counts = (self.allocation + [1] * n_axes)[:n_axes]
            if len(self.allocation) > n_axes:
                raise ValueError(
                    f"{len(self.allocation)} axis counts for {n_axes} angle axes"
                )
            return counts
        if self.allocation == "first-axis":
            return [self._requested] + [1] * (n_axes - 1)
        return balanced_axis_counts(self._requested, n_axes)

    def _fit(self, points: np.ndarray) -> np.ndarray | None:
        n_axes = points.shape[1] - 1
        explicit = self._explicit_boundaries
        if explicit is not None and len(explicit) != n_axes:
            raise ValueError(
                f"{len(explicit)} boundary arrays for {n_axes} angle axes"
            )
        counts = (
            [b.size + 1 for b in explicit]
            if explicit is not None
            else self._axis_counts(n_axes)
        )
        split = [axis for axis, k in enumerate(counts) if k > 1]
        # Quantile bins need the split axes' angles; every other mode needs
        # none, but the call still validates (d ≥ 2, non-negative).
        quantile = explicit is None and self.bins == "quantile"
        angles = angle_columns(points, split if quantile else [])
        self._counts = counts
        self.num_partitions = int(np.prod(counts)) if counts else 1
        radix = np.ones(n_axes, dtype=np.int64)
        for i in range(n_axes - 2, -1, -1):
            radix[i] = radix[i + 1] * counts[i + 1]
        self._radix = radix
        if explicit is not None:
            self._boundaries = list(explicit)
            return None

        boundaries = [np.empty(0) for _ in counts]
        for col, axis in enumerate(split):
            k = counts[axis]
            if quantile:
                qs = np.linspace(0, 1, k + 1)[1:-1]
                # The quantiles of the sorted column are the very same order
                # statistics, bit for bit, and one sort beats the multi-kth
                # partition np.quantile would run on the unsorted angles.
                edges = np.quantile(np.sort(angles[:, col]), qs)
            else:
                edges = np.linspace(0.0, MAX_ANGLE, k + 1)[1:-1]
            boundaries[axis] = np.asarray(edges, dtype=np.float64)
        self._boundaries = boundaries
        # A quantile fit computed the split axes' angles of every fit point:
        # exactly the columns _assign would recompute.
        return self._sector_ids(angles, split) if quantile else None

    def _assign(self, points: np.ndarray) -> np.ndarray:
        if points.shape[1] - 1 != len(self._counts):
            raise ValueError(
                f"expected {len(self._counts) + 1}-dimensional points, "
                f"got {points.shape[1]}"
            )
        split = [axis for axis, edges in enumerate(self._boundaries) if edges.size]
        return self._sector_ids(angle_columns(points, split), split)

    def _sector_ids(self, angles: np.ndarray, split: list[int]) -> np.ndarray:
        """Sector id per row of ``angles``, the columns of the ``split`` axes."""
        ids = np.zeros(angles.shape[0], dtype=np.int64)
        for col, axis in enumerate(split):
            edges = self._boundaries[axis]
            # The bin is the number of edges at or below the angle, so a
            # boundary angle belongs to the upper bin (right-open bins) and
            # π/2 lands in the last one.  For sorted, NaN-free edges that
            # is searchsorted(side="right"), but k−1 vectorised compares
            # into a narrow counter beat a binary search per unsorted angle.
            bins = np.zeros(angles.shape[0], dtype=np.min_scalar_type(edges.size))
            for edge in edges:
                bins += angles[:, col] >= edge
            ids += bins * self._radix[axis]
        return ids

    def _detail(self) -> Mapping[str, object]:
        return {
            "bins": self.bins,
            "allocation": self.allocation,
            "requested_partitions": self._requested,
            "counts_per_angle_axis": list(self._counts) if self._counts else None,
            "boundaries": (
                [b.tolist() for b in self._boundaries] if self._boundaries else None
            ),
        }

    def _trace_attrs(self) -> Mapping[str, object]:
        return {
            "bins": self.bins,
            "allocation": (
                self.allocation if isinstance(self.allocation, str) else "explicit"
            ),
            "sectors_per_axis": list(self._counts) if self._counts else [],
        }
