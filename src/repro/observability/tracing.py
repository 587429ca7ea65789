"""Zero-dependency structured tracer for the MapReduce skyline engine.

A :class:`Span` is one timed region — job → phase (map/shuffle/reduce) →
task → retry attempt — measured with the monotonic nanosecond clock
(:func:`time.perf_counter_ns`), so durations are immune to wall-clock
steps.  Spans nest through a :class:`Tracer` stack: ``tracer.span(...)``
is a context manager that opens a child of whatever span is currently
open, and finishing a span delivers it to every attached sink (a
JSON-lines exporter, in-memory capture buffers, or both).

Design constraints, in priority order:

1. **Disabled means free.**  The default tracer is disabled; its
   ``span()`` returns one shared no-op context manager, no clock is read,
   no object is allocated.  The engine keeps its hooks unconditionally —
   the <2 % overhead budget lives here.
2. **Failures still trace.**  Spans are exported as they *finish*, not at
   shutdown, so a job that dies mid-phase leaves a partial trace; the
   closing span of an exceptional region is marked ``status="error"``.
3. **Deterministic ids.**  Span/trace ids are per-tracer sequence numbers
   (no UUIDs, no PRNG) so two identical runs produce identical traces up
   to timing.

The serialized form is one JSON object per line; see
:func:`Span.to_dict` / :func:`read_trace` for the schema.
"""

from __future__ import annotations

import io
import json
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, TextIO

__all__ = [
    "Span",
    "Tracer",
    "JsonLinesExporter",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "read_trace",
    "now_ns",
]

#: Record-type tags used in trace files.
SPAN_RECORD = "span"
METRICS_RECORD = "metrics"


def now_ns() -> int:
    """The tracer's clock: monotonic nanoseconds (never steps backwards)."""
    return time.perf_counter_ns()


class Span:
    """One timed region of the pipeline.

    Attributes
    ----------
    name:
        Human-readable label, e.g. ``"mr-angle-partition"`` or ``"map-3"``.
    kind:
        Coarse category used by the summarizer: ``"job"``, ``"phase"``,
        ``"task"``, ``"bench"``, or free-form.
    trace_id / span_id / parent_id:
        Deterministic per-tracer sequence ids; ``parent_id`` is ``None``
        for root spans.
    start_ns / end_ns:
        Monotonic clock readings (:func:`now_ns`); ``end_ns`` is ``None``
        while the span is open.
    status:
        ``"ok"`` or ``"error"`` (the region raised).
    attrs:
        Arbitrary JSON-serializable key/value annotations.
    """

    __slots__ = (
        "name",
        "kind",
        "trace_id",
        "span_id",
        "parent_id",
        "start_ns",
        "end_ns",
        "status",
        "attrs",
    )

    def __init__(
        self,
        name: str,
        kind: str,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        start_ns: int,
    ):
        self.name = name
        self.kind = kind
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_ns = start_ns
        self.end_ns: int | None = None
        self.status = "ok"
        self.attrs: Dict[str, Any] = {}

    @property
    def duration_ns(self) -> int:
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    @property
    def duration_s(self) -> float:
        return self.duration_ns / 1e9

    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def set_attrs(self, **attrs: Any) -> None:
        self.attrs.update(attrs)

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-lines record for this span."""
        return {
            "type": SPAN_RECORD,
            "name": self.name,
            "kind": self.kind,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "duration_s": round(self.duration_s, 9),
            "status": self.status,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "Span":
        span = cls(
            name=record["name"],
            kind=record["kind"],
            trace_id=record["trace_id"],
            span_id=record["span_id"],
            parent_id=record.get("parent_id"),
            start_ns=int(record["start_ns"]),
        )
        if record.get("end_ns") is not None:
            span.end_ns = int(record["end_ns"])
        span.status = record.get("status", "ok")
        span.attrs = dict(record.get("attrs", {}))
        return span

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span({self.kind}:{self.name}, {self.duration_s:.6f}s, "
            f"status={self.status})"
        )


class _NullSpan:
    """Shared do-nothing span handed out by disabled tracers."""

    __slots__ = ()
    name = kind = trace_id = span_id = ""
    parent_id = None
    start_ns = 0
    end_ns = 0
    status = "ok"
    duration_ns = 0
    duration_s = 0.0
    attrs: Dict[str, Any] = {}

    def set_attr(self, key: str, value: Any) -> None:
        pass

    def set_attrs(self, **attrs: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _NullSpanContext:
    """Reusable no-op context manager; the disabled-tracing fast path."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_CM = _NullSpanContext()


class JsonLinesExporter:
    """Writes finished spans (and metrics snapshots) as JSON lines."""

    def __init__(self, target: str | TextIO):
        if isinstance(target, (str, bytes)):
            self._fh: TextIO = open(target, "w", encoding="utf-8")
            self._owns = True
        else:
            self._fh = target
            self._owns = False

    def export(self, span: Span) -> None:
        self._fh.write(json.dumps(span.to_dict(), default=str) + "\n")

    def write_metrics(self, snapshot: Dict[str, Any]) -> None:
        """Append a metrics-snapshot record to the trace stream."""
        record = {"type": METRICS_RECORD, "snapshot": snapshot}
        self._fh.write(json.dumps(record, default=str) + "\n")

    def flush(self) -> None:
        self._fh.flush()

    def close(self) -> None:
        self.flush()
        if self._owns:
            self._fh.close()


class Tracer:
    """Produces nested spans and routes finished ones to sinks.

    Parameters
    ----------
    exporter:
        Optional :class:`JsonLinesExporter` (or anything with an
        ``export(span)`` method) receiving every finished span.
    enabled:
        A disabled tracer's ``span()`` / ``record_span()`` are no-ops.
    keep_spans:
        Retain every finished span in :attr:`finished` (tests, summaries).
    """

    def __init__(
        self,
        exporter: JsonLinesExporter | None = None,
        *,
        enabled: bool = True,
        keep_spans: bool = False,
    ):
        self.exporter = exporter
        self.enabled = enabled
        self.finished: List[Span] = []
        self._keep_spans = keep_spans
        self._stack: List[Span] = []
        self._captures: List[List[Span]] = []
        self._next_span = 1
        self._next_trace = 1

    # -- span lifecycle ---------------------------------------------------------

    def span(self, name: str, kind: str = "span", **attrs: Any):
        """Context manager opening a child of the currently-open span."""
        if not self.enabled:
            return _NULL_CM
        return self._live_span(name, kind, attrs)

    @contextmanager
    def _live_span(self, name: str, kind: str, attrs: Dict[str, Any]):
        span = self._open(name, kind)
        if attrs:
            span.attrs.update(attrs)
        try:
            yield span
        except BaseException:
            span.status = "error"
            raise
        finally:
            self._close(span)

    def start_span(
        self,
        name: str,
        kind: str = "span",
        *,
        parent: Span | None = None,
        **attrs: Any,
    ) -> Span | _NullSpan:
        """Open a *detached* span: timed from now, but not on the stack.

        Detached spans are for concurrent regions — the serving plane's
        per-request admission, cache and compute stages — where LIFO
        context managers cannot express the true shape.  The caller holds
        the handle and must finish it with :meth:`end_span`.  Parentage
        comes from ``parent`` (or the innermost open stack span when
        omitted); child spans of concurrent regions must therefore pass
        their parent explicitly.
        """
        if not self.enabled:
            return _NULL_SPAN
        span = self._make(name, kind, parent=parent)
        if attrs:
            span.attrs.update(attrs)
        return span

    def end_span(self, span: Span | _NullSpan, status: str = "ok") -> None:
        """Finish a detached span from :meth:`start_span` and emit it."""
        if span is _NULL_SPAN or isinstance(span, _NullSpan):
            return
        span.end_ns = now_ns()
        span.status = status
        self._emit(span)

    def record_span(
        self,
        name: str,
        kind: str = "span",
        *,
        duration_ns: int = 0,
        status: str = "ok",
        parent: Span | None = None,
        **attrs: Any,
    ) -> Span | _NullSpan:
        """Record an already-elapsed region as a finished span.

        Used for work measured elsewhere — e.g. a task that ran in a
        worker process or thread and only reported its duration back.  The
        span ends "now" and is back-dated by ``duration_ns``; it is
        parented under ``parent`` (or the currently open span) and tagged
        ``synthetic`` (its start may overlap siblings, since the real
        execution was concurrent).
        """
        if not self.enabled:
            return _NULL_SPAN
        end = now_ns()
        span = self._make(
            name, kind, parent=parent, start_ns=end - max(int(duration_ns), 0)
        )
        span.end_ns = end
        span.status = status
        span.attrs["synthetic"] = True
        if attrs:
            span.attrs.update(attrs)
        self._emit(span)
        return span

    def current_span(self) -> Span | None:
        """The innermost open span, or ``None`` outside any region."""
        return self._stack[-1] if self._stack else None

    # -- capture / flush --------------------------------------------------------

    @contextmanager
    def capture(self) -> Iterator[List[Span]]:
        """Collect every span finished inside the ``with`` block."""
        bucket: List[Span] = []
        self._captures.append(bucket)
        try:
            yield bucket
        finally:
            self._captures.remove(bucket)

    def flush(self) -> None:
        if self.exporter is not None:
            self.exporter.flush()

    # -- internals --------------------------------------------------------------

    def _make(
        self,
        name: str,
        kind: str,
        parent: Span | None = None,
        start_ns: int | None = None,
    ) -> Span:
        """Allocate a span (ids + parentage) without touching the stack."""
        if parent is None:
            parent = self._stack[-1] if self._stack else None
        if parent is None:
            trace_id = f"t{self._next_trace}"
            self._next_trace += 1
        else:
            trace_id = parent.trace_id
        span = Span(
            name=name,
            kind=kind,
            trace_id=trace_id,
            span_id=f"s{self._next_span}",
            parent_id=parent.span_id if parent else None,
            start_ns=start_ns if start_ns is not None else now_ns(),
        )
        self._next_span += 1
        return span

    def _open(self, name: str, kind: str) -> Span:
        span = self._make(name, kind)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end_ns = now_ns()
        # Tolerate out-of-order closes (shouldn't happen, but never corrupt
        # the stack if user code leaks a context manager).
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # pragma: no cover - defensive
            self._stack.remove(span)
        self._emit(span)

    def _emit(self, span: Span) -> None:
        if self._keep_spans:
            self.finished.append(span)
        for bucket in self._captures:
            bucket.append(span)
        if self.exporter is not None:
            self.exporter.export(span)


#: The process-default disabled tracer: every hook in the engine calls
#: through it at near-zero cost until tracing is switched on.
NULL_TRACER = Tracer(enabled=False)

_default_tracer: Tracer = NULL_TRACER


def get_tracer() -> Tracer:
    """The process-wide tracer used by all engine hooks."""
    return _default_tracer


def set_tracer(tracer: Tracer | None) -> Tracer:
    """Install (or, with ``None``, reset) the process-wide tracer."""
    global _default_tracer
    _default_tracer = tracer if tracer is not None else NULL_TRACER
    return _default_tracer


def read_trace(source: str | TextIO) -> List[Dict[str, Any]]:
    """Parse a JSON-lines trace file into its raw records.

    Returns the full record list (span records and metrics snapshots).
    Raises ``ValueError`` on malformed lines or records missing the
    mandatory fields — the CLI relies on this to fail CI on bad traces.
    """
    if isinstance(source, (str, bytes)):
        with open(source, "r", encoding="utf-8") as fh:
            return read_trace(fh)
    records: List[Dict[str, Any]] = []
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"trace line {lineno} is not valid JSON: {exc}") from exc
        if not isinstance(record, dict) or "type" not in record:
            raise ValueError(f"trace line {lineno} is missing a 'type' field")
        if record["type"] == SPAN_RECORD:
            missing = {"name", "kind", "span_id", "start_ns"} - record.keys()
            if missing:
                raise ValueError(
                    f"trace line {lineno} span record missing {sorted(missing)}"
                )
        records.append(record)
    return records


def spans_of(records: List[Dict[str, Any]]) -> List[Span]:
    """The :class:`Span` objects among raw trace records."""
    return [Span.from_dict(r) for r in records if r.get("type") == SPAN_RECORD]


def metrics_of(records: List[Dict[str, Any]]) -> Dict[str, Any] | None:
    """The last metrics snapshot in a trace, if any."""
    snapshot = None
    for record in records:
        if record.get("type") == METRICS_RECORD:
            snapshot = record.get("snapshot")
    return snapshot


def dumps_spans(spans: List[Span]) -> str:
    """Serialize spans to a JSON-lines string (round-trip helper)."""
    out = io.StringIO()
    for span in spans:
        out.write(json.dumps(span.to_dict(), default=str) + "\n")
    return out.getvalue()
