"""Metrics exposition: Prometheus text format, JSON, and delta snapshots.

Three complementary views of one :class:`~repro.observability.metrics.MetricsRegistry`:

* :func:`render_prometheus` — the text exposition format scrapers expect:
  ``# TYPE`` headers, sanitized names, counters suffixed ``_total``,
  histograms as cumulative ``_bucket{le="…"}`` series plus ``_sum`` /
  ``_count``.  Output is deterministically ordered (sorted by metric
  name), so two renders of the same registry state are byte-identical —
  the property the exposition-parity tests pin down.
* :func:`json_snapshot` — the registry's own snapshot, guaranteed
  JSON-strict (no ``Infinity`` tokens) and round-trippable.
* :func:`snapshot_delta` — monotonic deltas between two snapshots, so
  pollers (``repro top``, the CI smoke job) compute rates without scraping
  twice per series.  A counter that moved *backwards* (a registry reset
  between polls) clamps to a zero delta instead of going negative — rates
  never spike negative across restarts.

The serving layer surfaces these through the read-only ``metrics`` verb
(:mod:`repro.serving.protocol`); batch runs keep writing the same snapshot
into trace files via ``disable_tracing(write_metrics=True)``.
"""

from __future__ import annotations

import json
import math
import re
from typing import Any, Dict, List

from repro.observability.metrics import MetricsRegistry, get_metrics

__all__ = [
    "sanitize_metric_name",
    "render_prometheus",
    "json_snapshot",
    "snapshot_delta",
]

#: Characters legal in a Prometheus metric name body.
_NAME_OK = re.compile(r"[a-zA-Z0-9_:]")
_NAME_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(name: str, *, prefix: str = "") -> str:
    """Map a dotted registry name onto the Prometheus grammar.

    ``[a-zA-Z_:][a-zA-Z0-9_:]*``: every illegal character (the registry's
    dots above all) becomes ``_``, runs collapse, and a leading digit gets
    an underscore escape.  The map is stable — equal inputs give equal
    outputs — but not injective; the parity tests assert the registry's
    name population stays collision-free.
    """
    cleaned = _NAME_BAD.sub("_", prefix + name)
    cleaned = re.sub(r"__+", "_", cleaned).strip("_") or "metric"
    if cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def _fmt(value: float) -> str:
    """A float in exposition syntax (Prometheus spells infinity ``+Inf``)."""
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def render_prometheus(
    registry: MetricsRegistry | None = None, *, prefix: str = "repro_"
) -> str:
    """The whole registry in the Prometheus text exposition format."""
    counters, gauges, histograms = (
        registry if registry is not None else get_metrics()
    ).export_view()
    lines: List[str] = []
    for name in sorted(counters):
        metric = sanitize_metric_name(name, prefix=prefix) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_fmt(counters[name].value)}")
    for name in sorted(gauges):
        metric = sanitize_metric_name(name, prefix=prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_fmt(gauges[name].value)}")
    for name in sorted(histograms):
        hist = histograms[name]
        metric = sanitize_metric_name(name, prefix=prefix)
        lines.append(f"# TYPE {metric} histogram")
        for bound, cumulative in hist.cumulative_buckets():
            lines.append(f'{metric}_bucket{{le="{_fmt(bound)}"}} {cumulative}')
        lines.append(f"{metric}_sum {_fmt(hist.total)}")
        lines.append(f"{metric}_count {hist.count}")
    return "\n".join(lines) + "\n" if lines else ""


def json_snapshot(registry: MetricsRegistry | None = None) -> Dict[str, Any]:
    """A JSON-strict registry snapshot (what ``metrics format=json`` serves).

    Round-trips through :func:`json.dumps` with ``allow_nan=False`` as a
    guarantee, not a hope: a non-finite value anywhere would raise here
    rather than emit an ``Infinity`` token a strict parser rejects.
    """
    snapshot = (registry if registry is not None else get_metrics()).snapshot()
    return json.loads(json.dumps(snapshot, allow_nan=False))


def snapshot_delta(
    previous: Dict[str, Any] | None, current: Dict[str, Any]
) -> Dict[str, Any]:
    """Monotonic difference between two registry snapshots.

    Counters and histogram ``count``/``sum`` report ``current - previous``
    clamped at zero (a shrink means the registry was reset between polls;
    a negative rate would be a lie).  Gauges are point-in-time values, so
    they pass through as-is.  With ``previous=None`` the current totals
    *are* the deltas — the first poll of a fresh series.
    """
    prev_counters = (previous or {}).get("counters", {})
    prev_hists = (previous or {}).get("histograms", {})
    counters = {
        name: max(0, value - prev_counters.get(name, 0))
        for name, value in current.get("counters", {}).items()
    }
    histograms = {}
    for name, snap in current.get("histograms", {}).items():
        prev = prev_hists.get(name, {})
        histograms[name] = {
            "count": max(0, snap["count"] - prev.get("count", 0)),
            "sum": max(0.0, snap.get("sum", 0.0) - prev.get("sum", 0.0)),
        }
    return {
        "counters": counters,
        "gauges": dict(current.get("gauges", {})),
        "histograms": histograms,
    }
