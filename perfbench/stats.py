"""Summary statistics shared by every workload.

The tail rule: a tail percentile is reported only where the sample
supports it, i.e. at least ten samples lie beyond it.  A metric named
``..._p99`` therefore reads the 99th percentile when there are at least
1,000 samples and otherwise the highest percentile with ten samples
beyond it; the report line states the percentile used and the count.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence, Tuple

#: Samples that must lie strictly beyond a reported tail percentile.
TAIL_SAMPLES_BEYOND = 10


def tail(values: Sequence[float], cap_pct: float) -> Tuple[float, float]:
    """``(value, percentile)`` of the highest supported percentile <= ``cap_pct``.

    Nearest-rank: the value at sorted index ``k`` has ``n - 1 - k``
    samples after it, so ``k`` is at most ``n - 1 - TAIL_SAMPLES_BEYOND``.
    Raises ``ValueError`` when the sample cannot support even that.
    """
    n = len(values)
    k_max = n - 1 - TAIL_SAMPLES_BEYOND
    if k_max < 0:
        raise ValueError(
            f"{n} samples cannot support a tail percentile "
            f"(need more than {TAIL_SAMPLES_BEYOND})"
        )
    k_cap = max(math.ceil(cap_pct / 100.0 * n) - 1, 0)
    k = min(k_cap, k_max)
    return sorted(values)[k], 100.0 * (k + 1) / n


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (the run-to-run noise)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


def summarize(values: Sequence[float], cap_pct: float) -> Dict[str, float]:
    """Median, supported tail and count, for the human-readable report."""
    value, pct = tail(values, cap_pct)
    return {"p50": median(values), "tail": value, "tail_pct": pct, "n": len(values)}
