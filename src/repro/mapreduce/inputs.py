"""Input splits: turning in-memory records into map-task inputs.

An :class:`InputSplit` is the unit of map-task scheduling — one map task per
split, as in Hadoop.  :func:`make_splits` chunks an in-memory sequence of
``(key, value)`` records into a requested number of contiguous splits; the
skyline jobs feed it rows straight from NumPy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Iterator, List, Sequence, Tuple

from repro.mapreduce.errors import JobConfigError


@dataclass(slots=True)
class InputSplit:
    """One map task's worth of input records."""

    index: int
    records: List[Tuple[Hashable, Any]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[Tuple[Hashable, Any]]:
        return iter(self.records)


def make_splits(
    records: Sequence[Tuple[Hashable, Any]] | Iterable[Tuple[Hashable, Any]],
    num_splits: int,
) -> List[InputSplit]:
    """Chunk ``records`` into at most ``num_splits`` contiguous splits.

    Split sizes differ by at most one record, so the map phase is balanced
    when records are homogeneous.  Never emits an empty split, except the
    single split of an empty input.
    """
    if num_splits <= 0:
        raise JobConfigError(f"num_splits must be positive, got {num_splits}")
    records = list(records)
    n = len(records)
    k = min(num_splits, n) or 1
    base, extra = divmod(n, k)
    out: List[InputSplit] = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        out.append(InputSplit(index=i, records=records[start : start + size]))
        start += size
    return out
