"""Data-space partitioner interface.

A :class:`SpacePartitioner` carves the QoS data space into ``num_partitions``
regions; the Map stage of every MR skyline algorithm calls
:meth:`~SpacePartitioner.assign` to route each point to its region.  The
partitioner is *fitted* on the driver (it may need data extents) and then
shipped to map tasks through the job parameters — the analogue of putting
partition metadata in Hadoop's distributed cache, so it must stay picklable.

Subclasses implement :meth:`_fit` and :meth:`_assign`; the base class
handles validation and the fitted-state protocol.  A ``_fit`` that derives
every fit point's partition on the way may return those ids, which
:meth:`~SpacePartitioner.fit_assign` then hands out instead of assigning
the same points a second time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.core.dominance import validate_points
from repro.observability.tracing import get_tracer

__all__ = ["NotFittedError", "SpacePartitioner", "partition_sizes", "load_imbalance"]


class NotFittedError(RuntimeError):
    """assign() was called before fit()."""


@dataclass(frozen=True, slots=True)
class PartitionSummary:
    """Human-readable description of a fitted partitioner."""

    scheme: str
    num_partitions: int
    detail: Mapping[str, object]


class SpacePartitioner:
    """Base class for dimensional / grid / angular / random partitioning."""

    #: short scheme name used in reports ("dim", "grid", "angle", ...)
    scheme: str = "abstract"

    def __init__(self, num_partitions: int) -> None:
        if num_partitions < 1:
            raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")
        self.num_partitions = num_partitions
        self._fitted = False

    # -- public protocol ---------------------------------------------------------

    def fit(
        self, points: np.ndarray, *, ids_out: list | None = None
    ) -> "SpacePartitioner":
        """Learn data extents (or whatever the scheme needs) from ``points``.

        ``ids_out`` (used by :meth:`fit_assign`) receives the partition ids
        of ``points`` when the scheme's fit derived them on the way; the
        partitioner itself keeps no per-point state, since it ships to
        every map task.
        """
        pts = validate_points(points)
        with get_tracer().span(
            f"partition-fit:{self.scheme}",
            kind="partition",
            scheme=self.scheme,
            points=int(pts.shape[0]),
            dims=int(pts.shape[1]),
        ) as span:
            ids = self._fit(pts)
            self._fitted = True
            span.set_attrs(partitions=self.num_partitions, **self._trace_attrs())
        if ids is not None and ids_out is not None:
            ids_out.append(self._checked(ids, pts.shape[0]))
        return self

    def assign(self, points: np.ndarray) -> np.ndarray:
        """Partition id in ``[0, num_partitions)`` for each point."""
        if not self._fitted:
            raise NotFittedError(
                f"{type(self).__name__}.assign() called before fit()"
            )
        pts = validate_points(points)
        return self._checked(self._assign(pts), pts.shape[0])

    def assign_block(self, rows: np.ndarray) -> np.ndarray:
        """Partition id per row of an already validated ``(n, d)`` matrix.

        The map tasks' entry point: their rows are cut from the matrix the
        driver validated, so assignment is one vectorised pass with no
        copy or re-validation of the rows.
        """
        if not self._fitted:
            raise NotFittedError(
                f"{type(self).__name__}.assign_block() called before fit()"
            )
        return self._checked(self._assign(rows), rows.shape[0])

    def fit_assign(self, points: np.ndarray) -> np.ndarray:
        """Fit on ``points`` and return their partition ids.

        Equal to ``fit(points).assign(points)`` bit for bit; a scheme whose
        fit already derived the ids skips the second pass.
        """
        fitted: list = []
        self.fit(points, ids_out=fitted)
        return fitted[0] if fitted else self.assign(points)

    def _checked(self, ids: np.ndarray, n: int) -> np.ndarray:
        """``ids`` as int64, after checking shape and range."""
        ids = np.asarray(ids)
        if ids.shape != (n,):
            raise AssertionError(
                f"{type(self).__name__}._assign returned shape {ids.shape}"
            )
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_partitions):
            raise AssertionError(
                f"{type(self).__name__} produced ids outside "
                f"[0, {self.num_partitions}): [{ids.min()}, {ids.max()}]"
            )
        return ids.astype(np.int64)

    def summary(self) -> PartitionSummary:
        return PartitionSummary(
            scheme=self.scheme,
            num_partitions=self.num_partitions,
            detail=self._detail(),
        )

    # -- subclass hooks -----------------------------------------------------------

    def _fit(self, points: np.ndarray) -> np.ndarray | None:
        """Fit on validated points; optionally return their partition ids."""
        raise NotImplementedError

    def _assign(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _detail(self) -> Mapping[str, object]:
        return {}

    def _trace_attrs(self) -> Mapping[str, object]:
        """Compact scheme-specific annotations for the fit-time trace span.

        Unlike :meth:`_detail` this must stay small (no boundary arrays) —
        it is serialized into every trace file.
        """
        return {}


def partition_sizes(ids: np.ndarray, num_partitions: int) -> np.ndarray:
    """Point count per partition (length ``num_partitions``)."""
    return np.bincount(np.asarray(ids, dtype=np.int64), minlength=num_partitions)


def load_imbalance(ids: np.ndarray, num_partitions: int) -> float:
    """max/mean partition size over *non-degenerate* runs; 0 for empty input.

    1.0 is a perfectly balanced partitioning; the paper argues angular
    partitioning balances load better than dimensional slabs.
    """
    sizes = partition_sizes(ids, num_partitions)
    total = sizes.sum()
    if total == 0:
        return 0.0
    mean = total / num_partitions
    return float(sizes.max() / mean)
