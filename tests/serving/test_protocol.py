"""JSON-lines protocol: request parsing, dispatch, and error shapes."""

import io
import json

import numpy as np
import pytest

from repro.serving.cluster import LocalCluster, ShardedBackend
from repro.serving.protocol import (
    PROTOCOL_VERSION,
    handle_request,
    parse_query_spec,
)
from repro.serving.queries import QuerySpec
from repro.serving.server import serve_lines
from repro.serving.service import ServeConfig, SkylineService


#: Requests with malformed numbers (JSON ``Infinity`` decodes to ``inf``,
#: which no whole-number parameter accepts; ``filters`` must be a matrix).
MALFORMED_NUMBERS = [
    pytest.param(
        '{"op": "remove", "dataset": "qws", "id": Infinity}',
        id="remove-infinite-id",
    ),
    pytest.param(
        '{"op": "query", "dataset": "qws", "kind": "skyband", "k": Infinity}',
        id="skyband-infinite-k",
    ),
    pytest.param(
        '{"op": "register", "dataset": "e", "points": [[1, 2], [2, 1]],'
        ' "partitions": Infinity}',
        id="register-infinite-partitions",
    ),
    pytest.param('{"op": "events", "n": Infinity}', id="events-infinite-n"),
    pytest.param(
        '{"op": "shard_query", "dataset": "qws", "filters": 5}',
        id="shard-query-scalar-filters",
    ),
]


#: Query parameters of the wrong wire type: a bool, a string or a fraction
#: is not a whole number, ``dims`` is a list, and ``deadline_s`` is a
#: finite number > 0.
BAD_QUERY_PARAMS = [
    pytest.param({"kind": "skyband", "k": True}, id="k-bool"),
    pytest.param({"kind": "skyband", "k": "3"}, id="k-string"),
    pytest.param({"kind": "skyband", "k": 2.5}, id="k-fraction"),
    pytest.param({"kind": "subspace", "dims": "01"}, id="dims-string"),
    pytest.param({"kind": "subspace", "dims": 1}, id="dims-scalar"),
    pytest.param({"kind": "subspace", "dims": [0, "1"]}, id="dims-string-element"),
    pytest.param({"kind": "subspace", "dims": [0, True]}, id="dims-bool-element"),
    pytest.param({"kind": "subspace", "dims": [0, 1.5]}, id="dims-fraction-element"),
    pytest.param({"deadline_s": -1}, id="deadline-negative"),
    pytest.param({"deadline_s": 0}, id="deadline-zero"),
    pytest.param({"deadline_s": float("inf")}, id="deadline-infinite"),
    pytest.param({"deadline_s": float("nan")}, id="deadline-nan"),
    pytest.param({"deadline_s": "1"}, id="deadline-string"),
    pytest.param({"deadline_s": True}, id="deadline-bool"),
]


#: Requests of the other ops whose whole-number parameters (``id``,
#: ``partitions``, ``n``, ``since_seq``) have the wrong wire type.
BAD_OP_PARAMS = [
    pytest.param({"op": "remove", "dataset": "qws", "id": 2.7}, id="remove-fraction-id"),
    pytest.param({"op": "remove", "dataset": "qws", "id": "1"}, id="remove-string-id"),
    pytest.param({"op": "remove", "dataset": "qws", "id": True}, id="remove-bool-id"),
    *(
        pytest.param(
            {"op": "register", "dataset": "r", "points": [[1, 2], [2, 1]],
             "partitions": partitions},
            id=f"register-{name}-partitions",
        )
        for name, partitions in (("bool", True), ("string", "8"), ("fraction", 2.5))
    ),
    pytest.param({"op": "events", "n": "5"}, id="events-string-n"),
    pytest.param({"op": "events", "n": True}, id="events-bool-n"),
    pytest.param({"op": "events", "n": 2.5}, id="events-fraction-n"),
    pytest.param({"op": "events", "since_seq": "0"}, id="events-string-since-seq"),
    pytest.param({"op": "events", "since_seq": True}, id="events-bool-since-seq"),
    pytest.param({"op": "events", "since_seq": 0.5}, id="events-fraction-since-seq"),
]


def _service(n=50):
    service = SkylineService()
    service.register("qws", np.random.default_rng(0).random((n, 3)) + 0.01)
    return service


class TestParseQuerySpec:
    def test_defaults_to_skyline(self):
        spec = parse_query_spec({"dataset": "qws"})
        assert spec.kind == "skyline"

    def test_parses_every_kind(self):
        assert parse_query_spec(
            {"dataset": "qws", "kind": "skyband", "k": 2}
        ).k == 2
        constrained = parse_query_spec({
            "dataset": "qws", "kind": "constrained",
            "lower": [0.0, 0.0], "upper": [1.0, 1.0],
        })
        assert constrained.lower == (0.0, 0.0)
        assert parse_query_spec(
            {"dataset": "qws", "kind": "subspace", "dims": [2, 0]}
        ).dims == (0, 2)

    def test_invalid_spec_raises(self):
        with pytest.raises(ValueError):
            parse_query_spec({"dataset": "qws", "kind": "nope"})


class TestDispatch:
    def test_register_inline_points(self):
        service = SkylineService()
        response = handle_request(service, {
            "op": "register", "dataset": "d",
            "points": [[1.0, 2.0], [2.0, 1.0]],
        })
        assert response == {"ok": True, "dataset": "d", "generation": 1, "size": 2}

    def test_register_generated_sample(self):
        service = SkylineService()
        response = handle_request(service, {
            "op": "register", "dataset": "g",
            "generate": {"n": 40, "d": 4, "seed": 3},
        })
        assert response["ok"] and response["size"] == 40

    def test_query_insert_requery(self):
        service = _service()
        first = handle_request(service, {"op": "query", "dataset": "qws"})
        assert first["ok"] and not first["cache_hit"]
        inserted = handle_request(service, {
            "op": "insert", "dataset": "qws", "point": [0.001, 0.001, 0.001],
        })
        assert inserted["generation"] == 2
        second = handle_request(service, {"op": "query", "dataset": "qws"})
        assert second["generation"] == 2 and not second["cache_hit"]
        assert inserted["id"] in second["ids"]
        removed = handle_request(service, {
            "op": "remove", "dataset": "qws", "id": inserted["id"],
        })
        assert removed == {"ok": True, "generation": 3}

    def test_unknown_remove_id_answers_the_plain_message(self):
        service = SkylineService()
        handle_request(service, {
            "op": "register", "dataset": "x", "points": [[1.0, 2.0], [2.0, 1.0]],
        })
        response = handle_request(service, {"op": "remove", "dataset": "x", "id": 999})
        assert response == {
            "ok": False, "status": "error", "error": "unknown point id 999",
        }

    def test_stats_and_ping(self):
        service = _service()
        stats = handle_request(service, {"op": "stats"})
        assert stats["ok"] and stats["version"] == PROTOCOL_VERSION
        assert stats["datasets"]["qws"]["size"] == 50
        assert handle_request(service, {"op": "ping"})["pong"] is True

    def test_unknown_op_and_non_object(self):
        service = _service()
        bad = handle_request(service, {"op": "frobnicate"})
        assert not bad["ok"] and "unknown op" in bad["error"]
        assert not handle_request(service, ["not", "an", "object"])["ok"]

    def test_unknown_dataset_is_an_error_response(self):
        response = handle_request(_service(), {"op": "query", "dataset": "nope"})
        assert response["ok"] is False
        assert response["status"] == "error"
        assert "unknown dataset" in response["error"]

    def test_invalid_params_are_error_responses(self):
        service = _service()
        response = handle_request(service, {
            "op": "query", "dataset": "qws", "kind": "skyband",
        })
        assert response["ok"] is False and response["status"] == "error"

    @pytest.mark.parametrize("generate", [
        5, "qws", [40, 4], True,
        {"n": "40"}, {"n": None}, {"n": 2.5}, {"n": float("inf")},
        {"d": [4]}, {"seed": False}, {"seed": {"value": 1}},
    ])
    def test_malformed_generate_is_an_error_response(self, generate):
        service = SkylineService()
        response = handle_request(service, {
            "op": "register", "dataset": "e", "generate": generate,
        })
        assert response["ok"] is False and response["status"] == "error"
        assert "generate" in response["error"]
        assert service.stats()["datasets"] == {}

    def test_whole_float_generate_params_are_accepted(self):
        response = handle_request(SkylineService(), {
            "op": "register", "dataset": "g",
            "generate": {"n": 40.0, "d": 4, "seed": 3},
        })
        assert response["ok"] and response["size"] == 40

    def test_overload_is_a_rejected_response(self):
        service = SkylineService(
            ServeConfig(max_inflight=1, max_queue=0, stale_on_overload=False)
        )
        service.register("qws", np.random.default_rng(0).random((20, 3)) + 0.01)
        assert service._admission.acquire(blocking=False)
        try:
            response = handle_request(service, {"op": "query", "dataset": "qws"})
        finally:
            service._admission.release()
        assert response["ok"] is False
        assert response["status"] == "rejected"
        assert response["reason"] == "overload"

    def test_generated_register_rejects_zero_dims(self):
        service = SkylineService()
        response = handle_request(service, {
            "op": "register", "dataset": "g", "generate": {"n": 50, "d": 0},
        })
        assert response == {
            "ok": False, "status": "error", "error": "dims must be in [1, 10], got 0",
        }
        assert service.stats()["datasets"] == {}

    def test_whole_float_query_params_are_accepted(self):
        service = _service()
        band = handle_request(service, {
            "op": "query", "dataset": "qws", "kind": "skyband", "k": 2.0,
        })
        sub = handle_request(service, {
            "op": "query", "dataset": "qws", "kind": "subspace",
            "dims": [2.0, 0], "deadline_s": 5,
        })
        assert band["ok"] and sub["ok"], (band, sub)
        assert band["ids"] == service.query(QuerySpec("qws", "skyband", k=2)).ids
        assert sub["ids"] == service.query(QuerySpec("qws", "subspace", dims=(0, 2))).ids

    @pytest.mark.parametrize("op", ["query", "shard_query"])
    @pytest.mark.parametrize("params", BAD_QUERY_PARAMS)
    def test_mistyped_query_params_are_error_responses(self, op, params):
        response = handle_request(_service(), {"op": op, "dataset": "qws", **params})
        assert response["ok"] is False and response["status"] == "error", response

    @pytest.mark.parametrize("bad", BAD_OP_PARAMS)
    def test_mistyped_op_params_are_error_responses(self, bad):
        service = _service()
        before = service.stats()["datasets"]
        response = handle_request(service, dict(bad))
        assert response["ok"] is False and response["status"] == "error", response
        # Same datasets, sizes and generations: nothing was applied.
        assert service.stats()["datasets"] == before


class TestCoordinatorWireTypes:
    @pytest.fixture(scope="class")
    def coordinator(self):
        with LocalCluster(2) as fleet:
            with SkylineService(backend=ShardedBackend(fleet.addresses())) as service:
                service.register("qws", np.random.default_rng(0).random((50, 3)) + 0.01)
                yield service

    @pytest.mark.parametrize("params", BAD_QUERY_PARAMS)
    def test_mistyped_query_params_are_error_responses(self, coordinator, params):
        before = coordinator.stats()["datasets"]["qws"]
        response = handle_request(
            coordinator, {"op": "query", "dataset": "qws", **params}
        )
        assert response["ok"] is False and response["status"] == "error", response
        assert coordinator.stats()["datasets"]["qws"] == before

    @pytest.mark.parametrize("bad", BAD_OP_PARAMS)
    def test_mistyped_op_params_are_error_responses(self, coordinator, bad):
        before = coordinator.stats()["datasets"]
        response = handle_request(coordinator, dict(bad))
        assert response["ok"] is False and response["status"] == "error", response
        assert coordinator.stats()["datasets"] == before

    def test_generated_register_rejects_zero_dims(self, coordinator):
        response = handle_request(coordinator, {
            "op": "register", "dataset": "g", "generate": {"n": 50, "d": 0},
        })
        assert response["ok"] is False and response["status"] == "error"
        assert "dims must be in [1, 10]" in response["error"]
        assert "g" not in coordinator.stats()["datasets"]


class TestServeLines:
    def test_session_runs_until_shutdown(self):
        service = _service()
        out = io.StringIO()
        lines = [
            "",  # blank lines are skipped
            '{"op": "ping"}',
            "this is not json",
            '{"op": "query", "dataset": "qws"}',
            '{"op": "shutdown"}',
            '{"op": "ping"}',  # never reached
        ]
        stopped = serve_lines(service, lines, out)
        assert stopped is True
        responses = out.getvalue().strip().splitlines()
        assert len(responses) == 4  # ping, bad-json error, query, shutdown
        assert '"pong": true' in responses[0]
        assert "bad JSON" in responses[1]

    def test_malformed_register_does_not_end_the_session(self):
        out = io.StringIO()
        lines = [
            '{"op": "register", "dataset": "e", "generate": 5}',
            '{"op": "ping"}',
        ]
        assert serve_lines(SkylineService(), lines, out) is False
        bad, pong = (json.loads(r) for r in out.getvalue().splitlines())
        assert bad["ok"] is False and bad["status"] == "error"
        assert pong["pong"] is True

    @pytest.mark.parametrize("bad", MALFORMED_NUMBERS)
    def test_malformed_numbers_are_error_responses(self, bad):
        service = _service()
        before = service.stats()["datasets"]
        out = io.StringIO()
        assert serve_lines(service, [bad, '{"op": "ping"}'], out) is False
        failed, pong = (json.loads(r) for r in out.getvalue().splitlines())
        assert failed["ok"] is False and failed["status"] == "error", failed
        assert pong["pong"] is True
        after = service.stats()["datasets"]
        assert after.keys() == before.keys()
        assert (after["qws"]["size"], after["qws"]["generation"]) == (
            before["qws"]["size"], before["qws"]["generation"],
        )

    def test_handler_exception_is_an_internal_response(self):
        from repro.observability.events import get_events

        def handler(service, request):
            if request.get("op") == "explode":
                raise RuntimeError("boom")
            return handle_request(service, request)

        out = io.StringIO()
        lines = ['{"op": "explode"}', '{"op": "ping"}']
        assert serve_lines(_service(), lines, out, handler=handler) is False
        failed, pong = (json.loads(r) for r in out.getvalue().splitlines())
        assert failed == {
            "ok": False, "status": "internal", "error": "RuntimeError: boom",
        }
        assert pong["pong"] is True
        internal = get_events().tail(kinds=["server.internal"])
        assert [e.attrs["error"] for e in internal] == [failed["error"]]
        assert failed["error"] in internal[0].attrs["traceback"]

    def test_session_without_shutdown_returns_false(self):
        service = _service()
        out = io.StringIO()
        assert serve_lines(service, ['{"op": "ping"}'], out) is False
