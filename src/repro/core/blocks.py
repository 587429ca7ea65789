"""Columnar point blocks — the representation behind the kernel seam.

Every hot path of the reproduction moves sets of points around: the engine
ships ``(index_array, row_matrix)`` batches between map and reduce tasks,
the incremental structure keeps per-partition member lists, the serving
store snapshots memberships.  :class:`PointBlock` gives those call sites one
columnar value type — a contiguous ``(n, d)`` float64 matrix plus a parallel
vector of **stable point ids** — with cheap slicing, masking and
concatenation, so the vectorised dominance kernels
(:mod:`repro.core.kernels`) can operate on whole blocks instead of one
Python object per point.

Design rules:

* **ids travel with rows.**  Every masking/slicing operation applies to both
  columns at once; a block can never hold rows whose ids drifted.
* **float64, 2-D, C-contiguous, NaN-free** — enforced by the public
  constructors via :func:`repro.core.dominance.validate_points`.  Blocks
  derived from validated blocks (``take``, ``slice``, ``chunks``,
  :func:`concat_blocks`) inherit those properties and skip the re-scan.
* **round-trips with the legacy API.**  :meth:`PointBlock.from_tuple` /
  :meth:`PointBlock.to_tuple` convert to the engine's ``(indices, rows)``
  record payloads, and :func:`concat_blocks` replaces the
  ``np.concatenate`` + ``np.vstack`` pairs in reduce UDFs — module
  boundaries keep speaking arrays, so nothing downstream of a boundary has
  to know which representation produced its input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

from repro.core.dominance import validate_points

__all__ = ["PointBlock", "concat_blocks"]


@dataclass(frozen=True)
class PointBlock:
    """An immutable columnar batch of points with stable ids.

    ``ids[i]`` names ``rows[i]`` forever: every derived block (slices,
    masks, concatenations) carries the surviving ids along, which is what
    lets the MapReduce skyline jobs return *input indices* even though the
    matrices they crunch have been filtered, partitioned and merged many
    times over.
    """

    ids: np.ndarray  # (n,) intp, the stable point identities
    rows: np.ndarray  # (n, d) float64, C-contiguous, NaN-free

    def __post_init__(self) -> None:
        rows = validate_points(self.rows, name="rows")
        if not rows.flags["C_CONTIGUOUS"]:
            rows = np.ascontiguousarray(rows)
        ids = np.asarray(self.ids, dtype=np.intp).reshape(-1)
        if ids.shape[0] != rows.shape[0]:
            raise ValueError(
                f"ids has {ids.shape[0]} entries for {rows.shape[0]} rows"
            )
        # frozen dataclass: route the coerced arrays around __setattr__.
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "rows", rows)

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_rows(
        cls, rows: np.ndarray, ids: np.ndarray | Sequence[int] | None = None
    ) -> "PointBlock":
        """Wrap a row matrix; ids default to ``0 … n-1``."""
        rows = validate_points(rows, name="rows")
        if ids is None:
            ids = np.arange(rows.shape[0], dtype=np.intp)
        return cls(ids=np.asarray(ids, dtype=np.intp), rows=rows)

    @classmethod
    def from_tuple(cls, pair: Tuple[np.ndarray, np.ndarray]) -> "PointBlock":
        """Adopt one legacy engine record payload ``(indices, rows)``."""
        indices, rows = pair
        return cls(ids=np.asarray(indices, dtype=np.intp), rows=rows)

    @classmethod
    def _derived(cls, ids: np.ndarray, rows: np.ndarray) -> "PointBlock":
        """Wrap ids/rows cut from already-validated blocks, unchecked.

        Indexing, slicing and stacking validated float64 matrices yields
        C-contiguous float64 matrices without NaNs, so the NaN scan of
        :meth:`__post_init__` would only repeat itself.
        """
        block = object.__new__(cls)
        object.__setattr__(block, "ids", ids)
        object.__setattr__(block, "rows", rows)
        return block

    @classmethod
    def empty(cls, d: int) -> "PointBlock":
        """A zero-point block of dimensionality ``d``."""
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        return cls(ids=np.empty(0, dtype=np.intp), rows=np.empty((0, d)))

    # -- legacy round-trip ------------------------------------------------------

    def to_tuple(self) -> Tuple[np.ndarray, np.ndarray]:
        """The engine's ``(indices, rows)`` payload shape, unchanged."""
        return self.ids, self.rows

    # -- shape ------------------------------------------------------------------

    def __len__(self) -> int:
        return int(self.rows.shape[0])

    @property
    def dims(self) -> int:
        return int(self.rows.shape[1])

    # -- columnar ops -----------------------------------------------------------

    def take(self, selector: np.ndarray) -> "PointBlock":
        """Rows selected by a boolean mask or an index array, ids kept."""
        sel = np.asarray(selector)
        if sel.dtype == bool and sel.shape != (len(self),):
            raise ValueError(
                f"mask has shape {sel.shape}, expected ({len(self)},)"
            )
        if sel.ndim > 1:
            raise ValueError(f"selector must be 1-D, got shape {sel.shape}")
        sel = sel.reshape(-1)
        return PointBlock._derived(self.ids[sel], self.rows[sel])

    def slice(self, start: int, stop: int) -> "PointBlock":
        """Contiguous row range ``[start, stop)`` — a view, no copy."""
        return PointBlock._derived(self.ids[start:stop], self.rows[start:stop])

    def chunks(self, size: int) -> Iterable["PointBlock"]:
        """Stream the block as consecutive sub-blocks of ``size`` rows."""
        if size < 1:
            raise ValueError(f"chunk size must be >= 1, got {size}")
        for start in range(0, len(self), size):
            yield self.slice(start, min(start + size, len(self)))

    def sort_by(self, order: np.ndarray) -> "PointBlock":
        """Reorder rows (and ids) by a permutation array."""
        return self.take(np.asarray(order, dtype=np.intp))

    def with_ids_ascending(self) -> "PointBlock":
        """Rows permuted so ids run ascending (canonical output order)."""
        return self.sort_by(np.argsort(self.ids, kind="stable"))


def concat_blocks(blocks: Sequence[PointBlock]) -> PointBlock:
    """Vertical concatenation, preserving ids; at least one block required.

    The columnar replacement for the reduce-UDF idiom
    ``np.concatenate([b[0] ...]) / np.vstack([b[1] ...])``.
    """
    if not blocks:
        raise ValueError("concat_blocks needs at least one block")
    dims = {b.dims for b in blocks}
    if len(dims) != 1:
        raise ValueError(f"blocks disagree on dimensionality: {sorted(dims)}")
    if len(blocks) == 1:
        return blocks[0]
    return PointBlock._derived(
        np.concatenate([b.ids for b in blocks]),
        np.vstack([b.rows for b in blocks]),
    )
