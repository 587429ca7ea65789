"""Grid partitioning — the MR-Grid scheme (§III-B).

The data space is cut into an equal-width grid using *all* dimensions ("in
the simplest case, two dimensions are utilized, and the 2-dimensional data
space is divided into 4 partitions by setting the range of partition in each
dimension is the half value of the maximum one").

MR-Grid's advantage over MR-Dim is *dominated-cell pruning*: a cell whose
lower corner is dominated by some non-empty cell's upper corner cannot
contain any skyline point, so its local skyline need not be computed at all
("the bottom-left partition dominates the up-right partition").
:meth:`GridPartitioner.pruned_cells` returns those cells; the map tasks
drop the points that fall in them.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.partitioning.base import SpacePartitioner

__all__ = ["GridPartitioner", "balanced_axis_counts"]


def balanced_axis_counts(target: int, axes: int) -> list[int]:
    """Per-axis cell counts whose product is as close to ``target`` as
    possible without exceeding it, kept as even as possible across axes.

    Greedy: repeatedly increment the axis with the smallest count while the
    product stays within ``target``.  ``axes == 0`` returns ``[]`` (a single
    implicit cell).
    """
    if target < 1:
        raise ValueError(f"target must be >= 1, got {target}")
    if axes < 0:
        raise ValueError(f"axes must be >= 0, got {axes}")
    counts = [1] * axes
    product = 1
    progressed = True
    while progressed:
        progressed = False
        for i in sorted(range(axes), key=lambda j: (counts[j], j)):
            candidate = product // counts[i] * (counts[i] + 1)
            if candidate <= target:
                counts[i] += 1
                product = candidate
                progressed = True
                break
    return counts


class GridPartitioner(SpacePartitioner):
    """Equal-width grid over every dimension.

    Parameters
    ----------
    num_partitions:
        *Requested* cell budget.  The fitted grid uses per-axis counts whose
        product is ≤ this budget (see :func:`balanced_axis_counts`); the
        effective count is ``num_partitions`` after :meth:`fit`.
    cells_per_dim:
        Explicit per-axis counts, overriding the budget heuristic.
    bins:
        ``"equal-width"`` (the paper's Vmax/Np rule) or ``"quantile"``
        (per-axis equal-count boundaries; load-balanced ablation variant —
        dominated-cell pruning stays valid because cells remain axis-aligned
        boxes).
    """

    scheme = "grid"

    def __init__(
        self,
        num_partitions: int,
        *,
        cells_per_dim: Sequence[int] | None = None,
        bins: str = "equal-width",
    ) -> None:
        super().__init__(num_partitions)
        self._requested = num_partitions
        if bins not in ("equal-width", "quantile"):
            raise ValueError(f"unknown bins mode {bins!r}")
        self.bins = bins
        if cells_per_dim is not None:
            counts = [int(c) for c in cells_per_dim]
            if any(c < 1 for c in counts):
                raise ValueError(f"cells_per_dim must be >= 1 each, got {counts}")
            self._counts: list[int] | None = counts
        else:
            self._counts = None
        self._vmax: np.ndarray | None = None
        self._widths: np.ndarray | None = None
        self._edges: list[np.ndarray] | None = None
        self._radix: np.ndarray | None = None
        self._occupied: np.ndarray | None = None

    # -- fitting -----------------------------------------------------------------

    def _fit(self, points: np.ndarray) -> None:
        d = points.shape[1]
        if self._counts is None:
            self._counts = balanced_axis_counts(self._requested, d)
        elif len(self._counts) != d:
            raise ValueError(
                f"cells_per_dim has {len(self._counts)} entries for "
                f"{d}-dimensional data"
            )
        counts = np.array(self._counts, dtype=np.int64)
        self.num_partitions = int(counts.prod())
        self._vmax = points.max(axis=0)
        widths = np.where(self._vmax > 0, self._vmax / counts, np.inf)
        # Subnormal vmax can underflow the division to 0; such a column is
        # effectively degenerate — use one slab for it.
        widths = np.where(widths > 0, widths, np.inf)
        self._widths = widths
        if self.bins == "quantile":
            self._edges = [
                np.quantile(points[:, j], np.linspace(0, 1, counts[j] + 1)[1:-1])
                for j in range(d)
            ]
        else:
            self._edges = None
        # Mixed-radix weights: id = Σ cell_coord[i] * radix[i].
        radix = np.ones(d, dtype=np.int64)
        for i in range(d - 2, -1, -1):
            radix[i] = radix[i + 1] * counts[i + 1]
        self._radix = radix
        self._occupied = np.zeros(self.num_partitions, dtype=bool)
        self._occupied[np.unique(self._assign(points))] = True

    def _cell_coords(self, points: np.ndarray) -> np.ndarray:
        limits = np.array(self._counts, dtype=np.int64) - 1
        if self._edges is not None:
            coords = np.column_stack(
                [
                    np.searchsorted(self._edges[j], points[:, j], side="right")
                    for j in range(points.shape[1])
                ]
            ).astype(np.int64)
            return np.clip(coords, 0, limits)
        # Clip in floating point before the cast: a quotient beyond the
        # int64 range has no defined conversion.  A column of infinite
        # width is a single slab, 0, so it is not divided at all.  Over a
        # subnormal width the quotient may overflow to ±inf, which the
        # clip sends to the first or last slab like any other far value.
        finite = np.isfinite(self._widths)
        with np.errstate(over="ignore"):
            scaled = np.divide(
                points, self._widths, out=np.zeros_like(points), where=finite
            )
        return np.clip(np.floor(scaled), 0, limits).astype(np.int64)

    def _assign(self, points: np.ndarray) -> np.ndarray:
        if points.shape[1] != len(self._counts):
            raise ValueError(
                f"expected {len(self._counts)}-dimensional points, "
                f"got {points.shape[1]}"
            )
        return self._cell_coords(points) @ self._radix

    # -- dominated-cell pruning -----------------------------------------------------

    def cell_coordinates(self, cell_id: int) -> tuple[int, ...]:
        """Inverse of the mixed-radix cell id."""
        coords = []
        remainder = int(cell_id)
        for weight in self._radix:
            coords.append(remainder // int(weight))
            remainder %= int(weight)
        return tuple(coords)

    def pruned_cells(self) -> np.ndarray:
        """Cell ids that cannot contain skyline points.

        A cell ``B`` is pruned when some *non-empty* cell ``A`` satisfies
        ``A_i + 1 ≤ B_i`` in every axis: with half-open cells, every point of
        ``A`` then strictly dominates every point of ``B``.  Occupancy is
        taken from the fit-time data.
        """
        if self._occupied is None:
            raise RuntimeError("call fit() first")
        occupied_ids = np.flatnonzero(self._occupied)
        if occupied_ids.size == 0:
            return np.empty(0, dtype=np.int64)
        occupied_coords = np.array(
            [self.cell_coordinates(c) for c in occupied_ids], dtype=np.int64
        )
        all_coords = np.array(
            [self.cell_coordinates(c) for c in range(self.num_partitions)],
            dtype=np.int64,
        )
        # dominated[b] = any occupied cell a with a + 1 <= b in all axes
        dom = (occupied_coords[:, None, :] + 1 <= all_coords[None, :, :]).all(axis=2)
        return np.flatnonzero(dom.any(axis=0)).astype(np.int64)

    def _detail(self) -> Mapping[str, object]:
        return {
            "cells_per_dim": list(self._counts) if self._counts else None,
            "requested_partitions": self._requested,
            "vmax": None if self._vmax is None else self._vmax.tolist(),
            "pruned_cells": (
                int(self.pruned_cells().size) if self._occupied is not None else None
            ),
        }

    def _trace_attrs(self) -> Mapping[str, object]:
        return {
            "cells_per_dim": list(self._counts) if self._counts else [],
            "occupied_cells": (
                int(self._occupied.sum()) if self._occupied is not None else 0
            ),
            "pruned_cells": (
                int(self.pruned_cells().size) if self._occupied is not None else 0
            ),
        }
