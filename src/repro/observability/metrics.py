"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The registry is the numeric half of the observability layer (spans are
the temporal half).  Three instrument types cover everything the skyline
pipeline reports:

* :class:`Counter` — monotone accumulator (dominance tests, task retries).
* :class:`Gauge` — last-written value (partition-skew ratios).
* :class:`Histogram` — fixed-bucket distribution with quantile
  *estimates* by linear interpolation inside the winning bucket; cheap,
  mergeable, and accurate enough to spot task-duration skew.

It also absorbs the engine's Hadoop-style
:class:`~repro.mapreduce.counters.Counters`: every ``(group, name)``
entry lands as a metric counter named ``"group.name"``, so job counters
and first-class metrics end up in one snapshot.
"""

from __future__ import annotations

import bisect
import fnmatch
import math
import threading
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ThresholdWatch",
    "DEFAULT_COUNT_BUCKETS",
    "DEFAULT_DURATION_BUCKETS_S",
    "get_metrics",
    "set_metrics",
    "observe_partition_skew",
]

#: Default histogram buckets for task durations, in seconds: 100 µs … ~2 min
#: on a roughly-geometric grid (the engine's tasks span five decades between
#: a --quick unit test and a Fig. 5b paper-scale run).
DEFAULT_DURATION_BUCKETS_S: tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    120.0,
)

#: Default buckets for count-valued histograms (records, dominance tests):
#: a 1–2–5 decade grid from 1 to 10⁹.
DEFAULT_COUNT_BUCKETS: tuple[float, ...] = tuple(
    m * 10**e for e in range(0, 9) for m in (1, 2, 5)
) + (10**9,)


class Counter:
    """A monotonically-growing integer/float accumulator."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        self.value += amount


class Gauge:
    """A point-in-time value: the last write wins.

    A gauge created by a :class:`MetricsRegistry` notifies the registry on
    every write (``_on_set``) so :class:`ThresholdWatch` hooks see each
    old→new transition; a standalone gauge has no observers.
    """

    __slots__ = ("name", "value", "_on_set")

    def __init__(
        self,
        name: str,
        on_set: Callable[[str, float, float], None] | None = None,
    ):
        self.name = name
        self.value: float = 0.0
        self._on_set = on_set

    def set(self, value: float) -> None:
        previous = self.value
        self.value = float(value)
        if self._on_set is not None:
            self._on_set(self.name, previous, self.value)


class Histogram:
    """Fixed-bucket histogram with interpolated quantile estimates.

    ``buckets`` are ascending upper bounds; observations above the last
    bound land in a +inf overflow bucket.  Quantiles interpolate linearly
    within the selected bucket (the overflow bucket reports its lower
    bound — a floor, clearly flagged by ``snapshot()['overflow']``).
    """

    __slots__ = ("name", "bounds", "counts", "overflow", "count", "total", "_min", "_max")

    def __init__(self, name: str, buckets: Sequence[float] | None = None):
        bounds = tuple(buckets if buckets is not None else DEFAULT_DURATION_BUCKETS_S)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be strictly ascending, got {bounds}")
        self.name = name
        self.bounds = bounds
        self.counts = [0] * len(bounds)
        self.overflow = 0
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self._min = min(self._min, value)
        self._max = max(self._max, value)
        idx = bisect.bisect_left(self.bounds, value)
        if idx >= len(self.bounds):
            self.overflow += 1
        else:
            self.counts[idx] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 ≤ q ≤ 1) from the bucket counts."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        # Rank of the target observation (1-based, midpoint convention).
        target = q * self.count
        cumulative = 0
        lower = 0.0
        for bound, n in zip(self.bounds, self.counts):
            if n:
                if cumulative + n >= target:
                    # Interpolate within [lower, bound], clamped to the
                    # observed extremes so tiny samples don't extrapolate.
                    frac = (target - cumulative) / n
                    est = lower + frac * (bound - lower)
                    return float(min(max(est, self._min), self._max))
                cumulative += n
            lower = bound
        # Overflow bucket: its lower bound is the best (under)estimate.
        return float(max(self.bounds[-1], self._min))

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """Prometheus-style cumulative ``(upper_bound, count)`` pairs.

        The final pair is the ``+inf`` overflow bucket, whose count equals
        the total observation count (the exposition-format invariant).
        """
        pairs: List[Tuple[float, int]] = []
        cumulative = 0
        for bound, n in zip(self.bounds, self.counts):
            cumulative += n
            pairs.append((bound, cumulative))
        pairs.append((math.inf, cumulative + self.overflow))
        return pairs

    def snapshot(self) -> Dict[str, Any]:
        # min/max default to ±inf before the first observation (and a
        # caller may observe an infinity outright); strict JSON has no
        # Infinity token, so everything non-finite flattens to 0.0 here —
        # `count` disambiguates the empty case.
        return {
            "count": self.count,
            "sum": _json_safe(self.total),
            "mean": _json_safe(self.mean),
            "min": _json_safe(self._min) if self.count else 0.0,
            "max": _json_safe(self._max) if self.count else 0.0,
            "p50": _json_safe(self.quantile(0.5)),
            "p90": _json_safe(self.quantile(0.9)),
            "p99": _json_safe(self.quantile(0.99)),
            "overflow": self.overflow,
        }


def _json_safe(value: float) -> float:
    """A strictly JSON-representable float (no inf/-inf/nan)."""
    return float(value) if math.isfinite(value) else 0.0


class ThresholdWatch:
    """Edge-triggered hook on gauges whose name matches a glob pattern.

    The watch fires its callback **exactly once per crossing**: when a
    matching gauge's value moves from the armed side of ``threshold`` to
    the other side (``direction="above"`` fires on ``value >= threshold``,
    ``"below"`` on ``value <= threshold``).  While the gauge stays beyond
    the bound the watch holds fire; moving back across re-arms it.  This is
    the groundwork the skew-aware re-balancer consumes: register a watch on
    ``partition.skew.*`` and react only to fresh excursions, not to every
    ``set()`` while a dataset stays skewed.

    Callbacks run synchronously on the thread that set the gauge, with the
    signature ``callback(gauge_name, value, watch)``; keep them cheap.
    State is tracked per gauge name, so one watch can monitor a family of
    gauges independently.
    """

    def __init__(
        self,
        pattern: str,
        threshold: float,
        callback: Callable[[str, float, "ThresholdWatch"], None],
        *,
        direction: str = "above",
    ):
        if direction not in ("above", "below"):
            raise ValueError(f"direction must be 'above' or 'below', got {direction!r}")
        self.pattern = pattern
        self.threshold = float(threshold)
        self.callback = callback
        self.direction = direction
        self.fired = 0
        self._lock = threading.RLock()
        self._beyond: Dict[str, bool] = {}

    def matches(self, name: str) -> bool:
        return fnmatch.fnmatchcase(name, self.pattern)

    def _is_beyond(self, value: float) -> bool:
        if self.direction == "above":
            return value >= self.threshold
        return value <= self.threshold

    def observe(self, name: str, value: float) -> None:
        """Feed one gauge write; fires the callback on a fresh crossing."""
        if not self.matches(name):
            return
        with self._lock:
            beyond = self._is_beyond(value)
            was_beyond = self._beyond.get(name, False)
            self._beyond[name] = beyond
            crossed = beyond and not was_beyond
            if crossed:
                self.fired += 1
        if crossed:
            self.callback(name, value, self)


class MetricsRegistry:
    """Named instruments, created on first use, snapshotted as one dict.

    Instrument *creation* is thread-safe: the instrument maps mutate only
    under ``self._lock`` (the engine's lock-discipline contract, enforced
    by ``repro lint``), with a lock-free fast path for the common
    already-created case.  Mutating a returned instrument is the caller's
    concern — counters merged via :meth:`absorb_counters` come from
    per-task :class:`~repro.mapreduce.counters.Counters` and need no
    synchronization; histogram observations from thread-backend task code
    are best-effort.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._watches: List[ThresholdWatch] = []
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            with self._lock:
                inst = self._counters.get(name)
                if inst is None:
                    inst = self._counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            with self._lock:
                inst = self._gauges.get(name)
                if inst is None:
                    inst = self._gauges[name] = Gauge(name, self._gauge_changed)
        return inst

    def _gauge_changed(self, name: str, old: float, new: float) -> None:
        with self._lock:
            watches = list(self._watches)
        for watch in watches:
            watch.observe(name, new)

    def watch(
        self,
        pattern: str,
        threshold: float,
        callback: Callable[[str, float, ThresholdWatch], None],
        *,
        direction: str = "above",
    ) -> ThresholdWatch:
        """Register an edge-triggered :class:`ThresholdWatch` on gauges
        matching the glob ``pattern`` (e.g. ``"partition.skew.*"``)."""
        watch = ThresholdWatch(pattern, threshold, callback, direction=direction)
        with self._lock:
            self._watches.append(watch)
        # Evaluate current values so a gauge already beyond the bound when
        # the watch arrives counts as its first crossing.
        for gauge in list(self._gauges.values()):
            watch.observe(gauge.name, gauge.value)
        return watch

    def unwatch(self, watch: ThresholdWatch) -> None:
        with self._lock:
            if watch in self._watches:
                self._watches.remove(watch)

    def histogram(self, name: str, buckets: Sequence[float] | None = None) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            with self._lock:
                inst = self._histograms.get(name)
                if inst is None:
                    inst = self._histograms[name] = Histogram(name, buckets)
        return inst

    def absorb_counters(self, counters: Iterable[tuple], prefix: str = "") -> None:
        """Fold a Hadoop-style counter set into this registry.

        Accepts anything iterable as ``(group, name, value)`` triples —
        in particular :class:`repro.mapreduce.counters.Counters` — and
        accumulates each into the metric counter ``"[prefix.]group.name"``.
        """
        for group, name, value in counters:
            key = f"{prefix}.{group}.{name}" if prefix else f"{group}.{name}"
            if value >= 0:
                self.counter(key).inc(value)
            else:  # negative job counters exist (they're allowed); gauge them
                self.gauge(key).set(value)

    def export_view(
        self,
    ) -> Tuple[Dict[str, Counter], Dict[str, Gauge], Dict[str, Histogram]]:
        """Shallow copies of the instrument maps, taken under the lock.

        The exposition renderer (:mod:`repro.observability.export`) needs
        the live :class:`Histogram` objects for their bucket detail, which
        :meth:`snapshot` deliberately flattens away.
        """
        with self._lock:
            return dict(self._counters), dict(self._gauges), dict(self._histograms)

    def snapshot(self) -> Dict[str, Any]:
        """Deep-copy JSON-ready view of every instrument."""
        with self._lock:
            return {
                "counters": {
                    n: c.value for n, c in sorted(self._counters.items())
                },
                "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
                "histograms": {
                    n: h.snapshot() for n, h in sorted(self._histograms.items())
                },
            }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


_default_registry = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide registry fed by all engine hooks."""
    return _default_registry


def set_metrics(registry: MetricsRegistry | None) -> MetricsRegistry:
    """Install (or, with ``None``, reset to a fresh) process-wide registry."""
    global _default_registry
    _default_registry = registry if registry is not None else MetricsRegistry()
    return _default_registry


def observe_partition_skew(
    registry: MetricsRegistry,
    sizes: Sequence[int],
    *,
    prefix: str = "partition",
) -> Dict[str, float]:
    """Record partition-skew gauges from per-partition record counts.

    Gauges (under ``prefix.``): ``records_max``, ``records_min``,
    ``max_min_ratio`` (max/min over non-empty floor of 1 — the paper's
    skew headline number), and ``imbalance`` (max/mean, the load-balance
    metric of :func:`repro.core.partitioning.load_imbalance`).

    Returns the gauge values so callers can attach them to summaries.
    """
    sizes = [int(s) for s in sizes]
    if not sizes:
        values = {"records_max": 0.0, "records_min": 0.0, "max_min_ratio": 0.0, "imbalance": 0.0}
    else:
        largest = max(sizes)
        smallest = min(sizes)
        mean = sum(sizes) / len(sizes)
        values = {
            "records_max": float(largest),
            "records_min": float(smallest),
            "max_min_ratio": float(largest / max(smallest, 1)),
            "imbalance": float(largest / mean) if mean > 0 else 0.0,
        }
    for name, value in values.items():
        registry.gauge(f"{prefix}.{name}").set(value)
    return values
