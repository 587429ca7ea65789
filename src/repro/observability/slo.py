"""Declarative SLOs with multi-window burn-rate evaluation.

An :class:`SLObjective` states what "good" means for one dimension of the
serving layer — availability (the request was answered) or latency (the
answer arrived under a threshold) — and what fraction of requests must be
good (``target``).  An :class:`SLOTracker` records every request into
time-bucketed good/total tallies on an injectable monotonic clock (the
same :class:`~repro._clock.MonotonicClock` surface the MapReduce
runner uses, so tests drive it with a fake and assert exact burn numbers).

**Burn rate** over a window is ``error_rate / error_budget`` where the
budget is ``1 - target``: burning at 1.0 exhausts the budget exactly at
the SLO period's end; 14.4 exhausts a 30-day budget in ~2 days.  The
evaluator applies the standard multi-window pairing so alerts are both
fast and unflappable:

* **page** — the fast pair: burn ≥ ``PAGE_BURN`` (14.4) over **both** the
  5 m and 1 h windows.  The long window proves it's sustained, the short
  window makes the alert reset quickly once the problem stops.
* **ticket** — the slow pair: burn ≥ ``TICKET_BURN`` (1.0) over both the
  6 h and 3 d windows: a slow leak that will exhaust the budget without
  ever tripping the fast pair.

No traffic in a window means no evidence of burn: its rate is 0.0 and the
state is ``ok`` (an idle service never pages).  Everything returned by
:meth:`SLOTracker.evaluate` is JSON-safe — the ``slo`` serving verb and
``repro top`` render it directly.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro._clock import MonotonicClock

__all__ = [
    "SLObjective",
    "SLOTracker",
    "DEFAULT_WINDOWS_S",
    "PAGE_BURN",
    "TICKET_BURN",
    "default_objectives",
]

#: The evaluation windows, fast pair then slow pair.
DEFAULT_WINDOWS_S: Dict[str, float] = {
    "5m": 300.0,
    "1h": 3600.0,
    "6h": 21600.0,
    "3d": 259200.0,
}

#: Fast-pair burn threshold (Google SRE workbook: 14.4 = 2% of a 30-day
#: budget in one hour).
PAGE_BURN = 14.4
#: Slow-pair burn threshold: burning at exactly budget pace.
TICKET_BURN = 1.0

#: Burn rates are capped here so a zero-budget objective stays JSON-finite.
_BURN_CAP = 1e6


@dataclass(frozen=True, slots=True)
class SLObjective:
    """One service-level objective over the request stream.

    ``latency_threshold_s=None`` makes it an availability objective (good =
    the request was answered at all); otherwise good = answered **and**
    under the threshold.  ``target`` is the required good fraction.
    """

    name: str
    target: float
    latency_threshold_s: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.target < 1.0:
            raise ValueError(
                f"SLO {self.name!r}: target must be in (0, 1), got {self.target}"
            )
        if self.latency_threshold_s is not None and self.latency_threshold_s <= 0:
            raise ValueError(
                f"SLO {self.name!r}: latency threshold must be > 0, "
                f"got {self.latency_threshold_s}"
            )

    def is_good(self, latency_s: float, ok: bool) -> bool:
        if not ok:
            return False
        return (
            self.latency_threshold_s is None
            or latency_s <= self.latency_threshold_s
        )

    def describe(self) -> Dict[str, Any]:
        spec: Dict[str, Any] = {"name": self.name, "target": self.target}
        if self.latency_threshold_s is not None:
            spec["latency_threshold_s"] = self.latency_threshold_s
        return spec


def default_objectives(
    *,
    availability_target: float = 0.999,
    latency_threshold_s: float = 0.25,
    latency_target: float = 0.95,
) -> List[SLObjective]:
    """The serving layer's stock pair: availability + a latency objective."""
    return [
        SLObjective("availability", availability_target),
        SLObjective("latency", latency_target, latency_threshold_s),
    ]


class _Bucket:
    """Good/total tallies for one time slice, per objective."""

    __slots__ = ("start_s", "total", "good")

    def __init__(self, start_s: float, num_objectives: int):
        self.start_s = start_s
        self.total = 0
        self.good = [0] * num_objectives


class SLOTracker:
    """Rolling good/total accounting plus multi-window burn evaluation."""

    def __init__(
        self,
        objectives: List[SLObjective] | None = None,
        *,
        clock: Any = None,
        bucket_s: float = 10.0,
        windows_s: Dict[str, float] | None = None,
    ):
        if clock is None:
            clock = MonotonicClock()
        if bucket_s <= 0:
            raise ValueError(f"bucket_s must be > 0, got {bucket_s}")
        self.objectives = list(
            objectives if objectives is not None else default_objectives()
        )
        names = [o.name for o in self.objectives]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate objective names: {names}")
        self.clock = clock
        self.bucket_s = float(bucket_s)
        self.windows_s = dict(windows_s if windows_s is not None else DEFAULT_WINDOWS_S)
        if not self.windows_s:
            raise ValueError("at least one evaluation window is required")
        self._horizon_s = max(self.windows_s.values())
        self._lock = threading.Lock()
        self._buckets: List[_Bucket] = []

    # -- recording --------------------------------------------------------------

    def record(self, latency_s: float, *, ok: bool = True) -> None:
        """Account one finished request (``ok=False`` = failed/rejected)."""
        now = self.clock.monotonic()
        start = math.floor(now / self.bucket_s) * self.bucket_s
        with self._lock:
            if not self._buckets or self._buckets[-1].start_s < start:
                self._buckets.append(_Bucket(start, len(self.objectives)))
            bucket = self._buckets[-1]
            bucket.total += 1
            for i, objective in enumerate(self.objectives):
                if objective.is_good(latency_s, ok):
                    bucket.good[i] += 1
            self._trim(now)

    def _trim(self, now: float) -> None:
        # Callers hold self._lock.  Keep one horizon of history (plus the
        # bucket that straddles the boundary).
        cutoff = now - self._horizon_s - self.bucket_s
        drop = 0
        while drop < len(self._buckets) and self._buckets[drop].start_s < cutoff:
            drop += 1
        if drop:
            del self._buckets[:drop]

    # -- evaluation -------------------------------------------------------------

    def _window_tallies(self, now: float) -> Dict[str, List[Tuple[int, int]]]:
        """Per window name, ``(good, total)`` per objective index."""
        with self._lock:
            buckets = list(self._buckets)
        tallies = {
            name: [(0, 0)] * len(self.objectives) for name in self.windows_s
        }
        for name, span in self.windows_s.items():
            cutoff = now - span
            good = [0] * len(self.objectives)
            total = 0
            for bucket in buckets:
                # A bucket counts toward a window when any part of its
                # slice is inside it.
                if bucket.start_s + self.bucket_s > cutoff:
                    total += bucket.total
                    for i in range(len(self.objectives)):
                        good[i] += bucket.good[i]
            tallies[name] = [(good[i], total) for i in range(len(self.objectives))]
        return tallies

    def evaluate(self) -> Dict[str, Any]:
        """JSON-ready burn-rate report for every objective and window."""
        now = self.clock.monotonic()
        tallies = self._window_tallies(now)
        report: Dict[str, Any] = {"objectives": [], "state": "ok"}
        severity = {"ok": 0, "ticket": 1, "page": 2}
        for i, objective in enumerate(self.objectives):
            budget = 1.0 - objective.target
            windows: Dict[str, Any] = {}
            burns: Dict[str, float] = {}
            for name in self.windows_s:
                good, total = tallies[name][i]
                error_rate = (total - good) / total if total else 0.0
                burn = min(error_rate / budget, _BURN_CAP) if budget > 0 else (
                    _BURN_CAP if error_rate > 0 else 0.0
                )
                burns[name] = burn
                windows[name] = {
                    "total": total,
                    "good": good,
                    "error_rate": round(error_rate, 6),
                    "burn_rate": round(burn, 4),
                }
            state = "ok"
            if (
                burns.get("5m", 0.0) >= PAGE_BURN
                and burns.get("1h", 0.0) >= PAGE_BURN
            ):
                state = "page"
            elif (
                burns.get("6h", 0.0) >= TICKET_BURN
                and burns.get("3d", 0.0) >= TICKET_BURN
            ):
                state = "ticket"
            report["objectives"].append(
                {**objective.describe(), "windows": windows, "state": state}
            )
            if severity[state] > severity[report["state"]]:
                report["state"] = state
        return report
