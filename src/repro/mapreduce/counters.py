"""Hadoop-style job counters.

Counters are grouped name → integer accumulators incremented by user code
through the task context (``ctx.increment("skyline", "dominance_tests")``)
and by the framework itself (record counts, spill counts).  Each task gets a
private :class:`Counters` instance; the runner merges them into the job-level
view, which keeps counter updates race-free under multiprocessing.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, Mapping, Tuple

#: Counter group used by the framework's own bookkeeping.
FRAMEWORK_GROUP = "framework"


class Counters:
    """A two-level (group, name) → int accumulator map."""

    __slots__ = ("_data",)

    def __init__(self) -> None:
        self._data: Dict[str, Dict[str, int]] = defaultdict(dict)

    def increment(self, group: str, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` in ``group`` (creating it at 0)."""
        # bool passes isinstance(int) but a True/False "amount" is always a
        # bug (e.g. `increment(g, n, mask.any())`), so reject it explicitly.
        if isinstance(amount, bool) or not isinstance(amount, int):
            raise TypeError(f"counter increment must be int, got {type(amount)!r}")
        bucket = self._data[group]
        bucket[name] = bucket.get(name, 0) + amount

    def value(self, group: str, name: str) -> int:
        """Current value of a counter; 0 if it was never incremented."""
        return self._data.get(group, {}).get(name, 0)

    def group(self, group: str) -> Mapping[str, int]:
        """Read-only snapshot of every counter in ``group``."""
        return dict(self._data.get(group, {}))

    def merge(self, other: "Counters") -> None:
        """Fold another counter set into this one (used at task completion).

        Every value in ``other`` already passed :meth:`increment`'s type
        check, so the sums fold straight into the buckets.
        """
        data = self._data
        for grp, names in other._data.items():
            bucket = data[grp]
            for name, val in names.items():
                bucket[name] = bucket.get(name, 0) + val

    def as_dict(self) -> Dict[str, Dict[str, int]]:
        """Deep-copy snapshot, suitable for JSON serialization."""
        return {g: dict(names) for g, names in self._data.items()}

    def __iter__(self) -> Iterator[Tuple[str, str, int]]:
        for grp, names in sorted(self._data.items()):
            for name, val in sorted(names.items()):
                yield grp, name, val

    def __len__(self) -> int:
        return sum(len(n) for n in self._data.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Counters):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{g}.{n}={v}" for g, n, v in self)
        return f"Counters({inner})"

    # -- framework convenience -------------------------------------------------

    def framework(self, name: str, amount: int = 1) -> None:
        """Increment a counter in the reserved framework group."""
        self.increment(FRAMEWORK_GROUP, name, amount)
