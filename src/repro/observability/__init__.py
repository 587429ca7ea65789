"""End-to-end tracing and metrics for the MapReduce skyline engine.

Two process-wide singletons back every hook in the engine:

* the **tracer** (:func:`get_tracer`) — structured spans covering
  job → phase (map/shuffle/reduce) → task → retry, exported as JSON
  lines; disabled by default at near-zero cost, and
* the **metrics registry** (:func:`get_metrics`) — counters, gauges and
  histograms, including the partition-skew gauges and the absorbed
  Hadoop-style job counters; always on (it is just dict arithmetic).

Typical use — trace one run and read it back::

    from repro import observability as obs

    tracer = obs.enable_tracing("run.jsonl")
    run_mr_skyline(points, method="angle")
    obs.disable_tracing(write_metrics=True)   # appends metrics snapshot

    spans, snapshot = obs.load_trace("run.jsonl")
    print(obs.render_summary(spans, snapshot))

or, from the command line, ``repro-skyline fig5a --trace run.jsonl``
then ``repro-skyline trace run.jsonl``.  See ``docs/observability.md``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro._lazy import lazy_export

if TYPE_CHECKING:
    from repro.observability.tracing import Tracer

# Public names by home module, imported on first use (PEP 562): a server
# loads the metrics and events it serves, not the trace reader.
_EXPORTS = {
    "repro.observability.events": ("Event", "EventLog", "get_events", "set_events"),
    "repro.observability.export": (
        "DeltaSnapshotter",
        "json_snapshot",
        "render_prometheus",
        "sanitize_metric_name",
        "snapshot_delta",
    ),
    "repro.observability.metrics": (
        "DEFAULT_DURATION_BUCKETS_S",
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
        "ThresholdWatch",
        "get_metrics",
        "observe_partition_skew",
        "set_metrics",
    ),
    "repro.observability.slo": ("SLObjective", "SLOTracker", "default_objectives"),
    "repro.observability.report": (
        "TraceError",
        "load_trace",
        "render_summary",
        "render_tree",
        "summarize_spans",
    ),
    "repro.observability.tracing": (
        "NULL_TRACER",
        "JsonLinesExporter",
        "Span",
        "Tracer",
        "get_tracer",
        "now_ns",
        "read_trace",
        "set_tracer",
    ),
}

__all__ = [
    "Counter",
    "DEFAULT_DURATION_BUCKETS_S",
    "DeltaSnapshotter",
    "Event",
    "EventLog",
    "Gauge",
    "Histogram",
    "JsonLinesExporter",
    "MetricsRegistry",
    "NULL_TRACER",
    "SLOTracker",
    "SLObjective",
    "Span",
    "ThresholdWatch",
    "TraceError",
    "Tracer",
    "default_objectives",
    "disable_tracing",
    "enable_tracing",
    "get_events",
    "get_metrics",
    "get_tracer",
    "json_snapshot",
    "load_trace",
    "now_ns",
    "observe_partition_skew",
    "read_trace",
    "render_prometheus",
    "render_summary",
    "render_tree",
    "sanitize_metric_name",
    "set_events",
    "set_metrics",
    "set_tracer",
    "snapshot_delta",
    "summarize_spans",
]


def __getattr__(name: str) -> Any:
    return lazy_export(__name__, _EXPORTS, name)


def enable_tracing(path: str | None = None, *, keep_spans: bool = False) -> Tracer:
    """Install an enabled process-wide tracer.

    ``path`` attaches a JSON-lines exporter writing every finished span
    to that file; ``keep_spans`` additionally retains spans in memory
    (``tracer.finished``) for programmatic summaries.
    """
    from repro.observability.tracing import JsonLinesExporter, Tracer, set_tracer

    exporter = JsonLinesExporter(path) if path is not None else None
    return set_tracer(Tracer(exporter, enabled=True, keep_spans=keep_spans))


def disable_tracing(*, write_metrics: bool = False) -> None:
    """Reset the process-wide tracer to the disabled default.

    With ``write_metrics=True``, the current metrics-registry snapshot is
    appended to the outgoing tracer's export stream first, so the trace
    file carries the final counter/gauge/histogram state.
    """
    from repro.observability.metrics import get_metrics
    from repro.observability.tracing import get_tracer, set_tracer

    tracer = get_tracer()
    if tracer.exporter is not None:
        if write_metrics:
            tracer.exporter.write_metrics(get_metrics().snapshot())
        tracer.exporter.close()
    set_tracer(None)
