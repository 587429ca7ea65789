"""JSON-lines request protocol of ``repro serve`` and the coordinator.

One request per line, one response per line.  Every request is an object
with an ``"op"`` field; every response has ``"ok": true/false``.  One
dispatcher, :func:`handle_request`, serves both planes; a front end over
a sharded backend differs only in what its responses carry: the
``generations`` vector instead of a scalar ``generation``, ``shards`` on
``register`` / ``ping``, ``missing_shards`` on queries, and the per-shard
table in ``stats``.  The ops:

``register``
    ``{"op": "register", "dataset": "qws", "points": [[...], ...]}`` or
    ``{"op": "register", "dataset": "qws", "generate": {"n": 500, "d": 4,
    "seed": 0}}`` (synthesises a QWS-like sample server-side, so clients
    don't ship megabytes of literals).  Optional ``scheme`` (default
    ``"angle"``), ``partitions`` and, on a cluster, ``shard_fn``
    (``"hash"`` / ``"angle"`` / ``"grid"`` / ``"dim"``; omitted =
    single-shard placement).
``query``
    ``{"op": "query", "dataset": "qws", "kind": "skyline"}`` plus the
    kind-specific parameters (``k`` / ``lower`` + ``upper`` / ``dims``)
    and an optional ``deadline_s`` (a finite number > 0).  Response
    carries ``ids``, ``generation``, ``cache_hit``, ``coalesced``,
    ``degraded``, ``status``.
``shard_query``
    The cluster fan-out leg (``docs/cluster.md``): like ``query`` but the
    response carries candidate ``rows`` alongside ``ids`` plus traffic
    accounting (``held`` / ``candidates`` / ``sent``), and an optional
    ``filters`` row list prunes dominated candidates before they cross
    the wire.  A single node's op only.
``insert`` / ``remove``
    Point mutations; responses carry the new ``generation`` (and the
    assigned ``id`` for inserts).
``stats`` / ``ping`` / ``shutdown``
    Operational introspection, liveness, and orderly stop.
``health`` / ``slo`` / ``events`` / ``metrics``
    The read-only telemetry plane (``docs/observability.md``):
    burn-driven health (``healthy`` / ``degraded`` / ``unhealthy``), the
    full multi-window SLO burn report, the structured event tail
    (optional ``n``, ``kinds`` glob list, ``since_seq`` for incremental
    polls), and the metrics registry as JSON (default) or
    ``"format": "prometheus"`` text exposition.  ``repro top`` is a
    client of exactly these verbs.

Failures are responses, not broken connections: an invalid request (a
shard's rejection of a write included) gets ``{"ok": false, "status":
"error", "error": ...}``; an admission-control rejection gets ``{"ok":
false, "status": "rejected", "reason": ...}`` — the JSON-lines analogue
of HTTP 429; a lost shard transport, or a query whose every shard is lost
with nothing stale cached, gets ``{"ok": false, "status":
"unavailable"}``.  Partial shard loss is a successful ``degraded`` answer.
"""

from __future__ import annotations

import math
from typing import Any, Dict

import numpy as np

from repro.serving.queries import QuerySpec
from repro.serving.service import (
    ServiceOverloadedError,
    ServiceUnavailableError,
    SkylineService,
    UnknownDatasetError,
)

__all__ = ["handle_request", "parse_query_spec"]

#: Protocol revision; bump on breaking changes.
PROTOCOL_VERSION = 1


def parse_query_spec(request: Dict[str, Any]) -> QuerySpec:
    """Build (and validate) the :class:`QuerySpec` of a ``query`` request.

    ``k`` and each element of ``dims`` follow :func:`_whole_number`, and
    ``dims`` must be a list: ``"k": "3"`` or ``"dims": "01"`` is an error,
    not a coerced query.
    """
    k = request.get("k")
    lower = request.get("lower")
    upper = request.get("upper")
    dims = request.get("dims")
    if dims is not None and not isinstance(dims, list):
        raise ValueError(f"dims must be a list of whole numbers, got {dims!r}")
    return QuerySpec(
        dataset=str(request.get("dataset", "")),
        kind=str(request.get("kind", "skyline")),
        k=_whole_number(k, "k") if k is not None else None,
        lower=tuple(lower) if lower is not None else None,
        upper=tuple(upper) if upper is not None else None,
        dims=(
            tuple(_whole_number(d, "dims") for d in dims) if dims is not None else None
        ),
    )


def _deadline(request: Dict[str, Any]) -> float | None:
    """A request's ``deadline_s``: absent, or a finite number > 0 (the rule
    ``ServeConfig.validate`` applies to the server's default)."""
    value = request.get("deadline_s")
    if value is None:
        return None
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not (math.isfinite(value) and value > 0)
    ):
        raise ValueError(f"deadline_s must be a finite number > 0, got {value!r}")
    return float(value)


def _points_of(request: Dict[str, Any]) -> np.ndarray | None:
    """Dataset rows of a ``register`` request (inline or generated)."""
    if request.get("points") is not None:
        return np.asarray(request["points"], dtype=np.float64)
    generate = request.get("generate")
    if generate is not None:
        from repro.services.qws import generate_qws

        if not isinstance(generate, dict):
            raise ValueError("generate must be an object with n, d and seed")
        n = _whole_number(generate.get("n", 1000), "generate.n")
        d = _whole_number(generate.get("d", 4), "generate.d")
        seed = _whole_number(generate.get("seed", 0), "generate.seed")
        return generate_qws(n, seed=seed).qos_matrix(d)
    return None


def _whole_number(value: Any, name: str) -> int:
    """``value`` as an int; a bool, a non-numeric or a fractional value is
    a ``ValueError``, which the dispatcher turns into an error response."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def _generation(service: SkylineService, label: Any) -> Dict[str, Any]:
    """A mutation's generation on the wire: scalar, or the shard vector."""
    if service.backend.sharded:
        return {"generations": list(label)}
    return {"generation": label}


def _handle_register(service: SkylineService, request: Dict[str, Any]) -> Dict[str, Any]:
    dataset = str(request.get("dataset", ""))
    shard_fn = request.get("shard_fn")
    label = service.register(
        dataset,
        _points_of(request),
        scheme=str(request.get("scheme", "angle")),
        num_partitions=_whole_number(request.get("partitions", 8), "partitions"),
        shard_fn=str(shard_fn) if shard_fn is not None else None,
    )
    if service.backend.sharded:
        extra = {"shards": service.backend.num_shards}  # type: ignore[attr-defined]
    else:
        extra = {"size": len(service.store(dataset))}
    return {"ok": True, "dataset": dataset, **_generation(service, label), **extra}


def _handle_query(service: SkylineService, request: Dict[str, Any]) -> Dict[str, Any]:
    spec = parse_query_spec(request)
    response = service.query(spec, deadline_s=_deadline(request))
    return {"ok": True, **response.to_dict()}


def _handle_shard_query(
    service: SkylineService, request: Dict[str, Any]
) -> Dict[str, Any]:
    """One fan-out leg of a cluster query: ids *and* rows, filter-pruned.

    ``{"op": "shard_query", "dataset": ..., "kind": ..., <params>,
    "filters": [[...], ...]}`` — ``filters`` are live rows of the global
    dataset broadcast by the coordinator (Ciaccia–Martinenghi); candidates
    they dominate never cross the wire.
    """
    spec = parse_query_spec(request)
    deadline = _deadline(request)
    filters = request.get("filters")
    rows = np.asarray(filters, dtype=np.float64) if filters else None
    if rows is not None and rows.ndim != 2:
        raise ValueError(f"filters must be a list of rows, got {filters!r}")
    payload = service.shard_candidates(
        spec,
        filters=rows,
        deadline_s=deadline,
    )
    return {"ok": True, "dataset": spec.dataset, "kind": spec.kind, **payload}


def _handle_insert(service: SkylineService, request: Dict[str, Any]) -> Dict[str, Any]:
    point_id, label = service.insert(
        str(request.get("dataset", "")), request["point"]
    )
    return {"ok": True, "id": point_id, **_generation(service, label)}


def _handle_remove(service: SkylineService, request: Dict[str, Any]) -> Dict[str, Any]:
    label = service.remove(
        str(request.get("dataset", "")), _whole_number(request["id"], "id")
    )
    return {"ok": True, **_generation(service, label)}


def _handle_events(service: SkylineService, request: Dict[str, Any]) -> Dict[str, Any]:
    n = request.get("n", 50)
    kinds = request.get("kinds")
    since_seq = request.get("since_seq")
    if kinds is not None and (
        not isinstance(kinds, list)
        or not all(isinstance(k, str) for k in kinds)
    ):
        raise ValueError(f"kinds must be a list of glob strings, got {kinds!r}")
    events = service.events_tail(
        _whole_number(n, "n") if n is not None else None,
        kinds=kinds,
        since_seq=(
            _whole_number(since_seq, "since_seq") if since_seq is not None else None
        ),
    )
    return {"ok": True, "events": events, "count": len(events)}


def _handle_metrics(service: SkylineService, request: Dict[str, Any]) -> Dict[str, Any]:
    from repro.observability.export import json_snapshot, render_prometheus

    fmt = str(request.get("format", "json"))
    if fmt == "prometheus":
        return {
            "ok": True,
            "format": "prometheus",
            "content_type": "text/plain; version=0.0.4",
            "body": render_prometheus(),
        }
    if fmt == "json":
        return {"ok": True, "format": "json", "metrics": json_snapshot()}
    raise ValueError(f"unknown metrics format {fmt!r} (json or prometheus)")


def handle_request(
    service: SkylineService, request: Dict[str, Any]
) -> Dict[str, Any]:
    """Dispatch one decoded request; always returns a response object."""
    if not isinstance(request, dict):
        return {"ok": False, "status": "error", "error": "request must be an object"}
    op = request.get("op")
    try:
        if op == "register":
            return _handle_register(service, request)
        if op == "query":
            return _handle_query(service, request)
        if op == "shard_query" and not service.backend.sharded:
            return _handle_shard_query(service, request)
        if op == "insert":
            return _handle_insert(service, request)
        if op == "remove":
            return _handle_remove(service, request)
        if op == "stats":
            return {"ok": True, "version": PROTOCOL_VERSION, **service.stats()}
        if op == "health":
            return {"ok": True, **service.health()}
        if op == "slo":
            return {"ok": True, **service.slo_report()}
        if op == "events":
            return _handle_events(service, request)
        if op == "metrics":
            return _handle_metrics(service, request)
        if op == "ping":
            pong: Dict[str, Any] = {
                "ok": True, "pong": True, "version": PROTOCOL_VERSION,
            }
            if service.backend.sharded:
                pong["shards"] = service.backend.num_shards  # type: ignore[attr-defined]
            return pong
        if op == "shutdown":
            return {"ok": True, "bye": True}
        return {"ok": False, "status": "error", "error": f"unknown op {op!r}"}
    except ServiceOverloadedError as exc:
        return {
            "ok": False,
            "status": "rejected",
            "reason": exc.reason,
            "error": str(exc),
        }
    except ServiceUnavailableError as exc:
        response: Dict[str, Any] = {
            "ok": False, "status": "unavailable", "error": str(exc),
        }
        if exc.shard is not None:
            response["shard"] = exc.shard
        return response
    except UnknownDatasetError as exc:
        return {
            "ok": False,
            "status": "error",
            "error": f"unknown dataset {exc.args[0]!r}",
        }
    except KeyError as exc:
        # str() of a KeyError is the repr of its argument, quotes included;
        # the argument itself is the message.
        message = str(exc.args[0]) if exc.args else str(exc)
        return {"ok": False, "status": "error", "error": message}
    # OverflowError: JSON ``Infinity`` where the op needs a whole number.
    except (TypeError, ValueError, OverflowError) as exc:
        return {"ok": False, "status": "error", "error": str(exc)}
