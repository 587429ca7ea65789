"""The serve path: cache, invalidation, coalescing, shedding, deadlines."""

import threading

import numpy as np
import pytest

from repro.observability.events import get_events
from repro.observability.metrics import get_metrics
from repro.observability.tracing import Tracer, set_tracer
from repro.serving.queries import QuerySpec, evaluate
from repro.serving.service import (
    SKEW_ALERT_RATIO,
    QueryResponse,
    ServeConfig,
    ServiceOverloadedError,
    SkylineService,
    UnknownDatasetError,
)


class FakeClock:
    """Deterministic monotonic time: each reading advances by ``step``."""

    def __init__(self, step=0.0):
        self.now = 0.0
        self.step = step

    def monotonic(self):
        self.now += self.step
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def _points(n=100, d=3, seed=0):
    return np.random.default_rng(seed).random((n, d)) + 0.01


def _service(config=None, *, clock=None, n=100):
    service = SkylineService(config, clock=clock)
    service.register("qws", _points(n))
    return service


def counter(name):
    return get_metrics().counter(name).value


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_inflight": 0},
            {"max_queue": -1},
            {"cache_entries": -1},
            {"default_deadline_s": 0.0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SkylineService(ServeConfig(**kwargs))

    def test_skew_alert_fires_at_the_fixed_bound(self):
        # A balanced job's max/min ratio is 1, so a bound at or below 1
        # would alert on every job.
        assert SKEW_ALERT_RATIO > 1.0
        SkylineService()
        gauge = get_metrics().gauge("partition.skew.qws.max_min_ratio")
        gauge.set(1.0)
        gauge.set(SKEW_ALERT_RATIO)
        gauge.set(SKEW_ALERT_RATIO + 1.0)
        alerts = [e for e in get_events().tail(50) if e.kind == "skew.alert"]
        assert [e.attrs["threshold"] for e in alerts] == [SKEW_ALERT_RATIO]


class TestCachePath:
    def test_miss_then_hit(self):
        service = _service()
        spec = QuerySpec(dataset="qws")
        first = service.query(spec)
        second = service.query(spec)
        assert not first.cache_hit and second.cache_hit
        assert first.ids == second.ids
        assert first.generation == second.generation == 1
        assert counter("serve.cache.misses") == 1
        assert counter("serve.cache.hits") == 1
        assert counter("serve.computes") == 1

    def test_mutation_invalidates_by_generation(self):
        service = _service()
        spec = QuerySpec(dataset="qws")
        before = service.query(spec)
        _, gen = service.insert("qws", [0.001, 0.001, 0.001])
        after = service.query(spec)
        assert gen == 2
        assert not after.cache_hit
        assert after.generation == 2
        assert after.ids != before.ids
        assert counter("serve.mutations") == 1

    def test_distinct_params_cached_separately(self):
        service = _service()
        a = service.query(QuerySpec(dataset="qws", kind="skyband", k=2))
        b = service.query(QuerySpec(dataset="qws", kind="skyband", k=3))
        assert not a.cache_hit and not b.cache_hit
        assert counter("serve.computes") == 2

    def test_each_kind_matches_ground_truth(self):
        service = _service()
        snap = service.store("qws").snapshot()
        specs = [
            QuerySpec(dataset="qws"),
            QuerySpec(dataset="qws", kind="skyband", k=3),
            QuerySpec(
                dataset="qws", kind="constrained",
                lower=(0.1, 0.1, 0.1), upper=(0.8, 0.8, 0.8),
            ),
            QuerySpec(dataset="qws", kind="subspace", dims=(0, 2)),
        ]
        for spec in specs:
            response = service.query(spec)
            assert response.ids == evaluate(spec, snap.ids, snap.rows)
            assert response.generation == snap.generation

    def test_unknown_dataset_raises(self):
        service = _service()
        with pytest.raises(UnknownDatasetError):
            service.query(QuerySpec(dataset="nope"))


class TestShedding:
    def _saturate(self, service):
        assert service._admission.acquire(blocking=False)
        return lambda: service._admission.release()

    def test_overload_without_stale_answer_is_rejected(self):
        service = _service(ServeConfig(max_inflight=1, max_queue=0,
                                       stale_on_overload=False))
        release = self._saturate(service)
        try:
            with pytest.raises(ServiceOverloadedError) as exc:
                service.query(QuerySpec(dataset="qws"))
            assert exc.value.reason == "overload"
            assert counter("serve.shed") == 1
        finally:
            release()

    def test_overload_with_cold_cache_is_rejected_even_with_stale_on(self):
        service = _service(ServeConfig(max_inflight=1, max_queue=0))
        release = self._saturate(service)
        try:
            with pytest.raises(ServiceOverloadedError):
                service.query(QuerySpec(dataset="qws"))
        finally:
            release()

    def test_overload_serves_degraded_stale_answer(self):
        service = _service(ServeConfig(max_inflight=1, max_queue=0))
        spec = QuerySpec(dataset="qws")
        warm = service.query(spec)  # populate generation 1
        service.insert("qws", [0.001, 0.001, 0.001])
        release = self._saturate(service)
        try:
            shed = service.query(spec)
        finally:
            release()
        assert shed.degraded and shed.status == "degraded"
        assert shed.cache_hit
        assert shed.generation == 1  # stale: pre-mutation generation
        assert shed.ids == warm.ids
        assert counter("serve.shed") == 1
        assert counter("serve.degraded") == 1

    def test_stale_answer_is_newest_cached_generation(self):
        service = _service(ServeConfig(max_inflight=1, max_queue=0))
        spec = QuerySpec(dataset="qws")
        service.query(spec)
        service.insert("qws", [0.001, 0.001, 0.001])
        newer = service.query(spec)  # caches generation 2
        service.insert("qws", [0.002, 0.001, 0.001])
        release = self._saturate(service)
        try:
            shed = service.query(spec)
        finally:
            release()
        assert shed.generation == 2
        assert shed.ids == newer.ids


class TestDeadlines:
    def test_expired_deadline_counts_deadline_exceeded(self):
        # Every clock reading advances by one second: the deadline is
        # already spent when admission re-checks it, without real waiting.
        service = _service(
            ServeConfig(max_inflight=1, max_queue=4, stale_on_overload=False),
            clock=FakeClock(step=1.0),
        )
        release = TestShedding()._saturate(service)
        try:
            with pytest.raises(ServiceOverloadedError) as exc:
                service.query(QuerySpec(dataset="qws"), deadline_s=0.5)
            assert exc.value.reason == "deadline"
            assert counter("serve.deadline_exceeded") == 1
            assert counter("serve.shed") == 1
        finally:
            release()

    def test_default_deadline_from_config(self):
        service = _service(
            ServeConfig(max_inflight=1, max_queue=4,
                        stale_on_overload=False, default_deadline_s=0.5),
            clock=FakeClock(step=1.0),
        )
        release = TestShedding()._saturate(service)
        try:
            with pytest.raises(ServiceOverloadedError) as exc:
                service.query(QuerySpec(dataset="qws"))
            assert exc.value.reason == "deadline"
        finally:
            release()

    def test_generous_deadline_answers_normally(self):
        service = _service()
        response = service.query(QuerySpec(dataset="qws"), deadline_s=30.0)
        assert response.status == "ok"
        assert counter("serve.deadline_exceeded") == 0


class TestCoalescing:
    def test_duplicate_inflight_queries_share_one_compute(self):
        tracer = Tracer(keep_spans=True)
        set_tracer(tracer)
        service = _service(ServeConfig(max_inflight=8, max_queue=8))
        store = service.store("qws")
        spec = QuerySpec(dataset="qws")

        gate = threading.Event()
        entered = threading.Event()
        original = store.skyline_snapshot

        def gated_snapshot():
            entered.set()
            assert gate.wait(timeout=10)
            return original()

        store.skyline_snapshot = gated_snapshot
        responses = []
        errors = []

        def worker():
            try:
                responses.append(service.query(spec))
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        leader = threads[0]
        leader.start()
        assert entered.wait(timeout=10)  # the leader owns the flight
        for t in threads[1:]:
            t.start()
        # Wait until every follower has joined the flight, then open the gate.
        deadline = threading.Event()
        for _ in range(200):
            with service._lock:
                flights = list(service._flights.values())
            if flights and flights[0].requests == 4:
                break
            deadline.wait(0.01)
        gate.set()
        for t in threads:
            t.join(timeout=10)
        store.skyline_snapshot = original

        assert not errors
        assert len(responses) == 4
        assert len({tuple(r.ids) for r in responses}) == 1
        assert sum(1 for r in responses if not r.coalesced) == 1
        assert sum(1 for r in responses if r.coalesced) == 3
        assert counter("serve.computes") == 1
        assert counter("serve.coalesced") == 3

        # Acceptance: one serve.compute span, >1 serve.request spans, and
        # the compute span records how many requests it answered.
        finished = tracer.finished
        compute = [s for s in finished if s.name == "serve.compute"]
        requests = [s for s in finished if s.name == "serve.request"]
        assert len(compute) == 1
        assert len(requests) == 4
        assert compute[0].attrs["requests"] == 4
        assert compute[0].parent_id in {s.span_id for s in requests}

    def test_coalesced_leader_error_propagates_to_followers(self):
        service = _service(ServeConfig(max_inflight=8, max_queue=8))
        store = service.store("qws")
        spec = QuerySpec(dataset="qws")
        gate = threading.Event()
        entered = threading.Event()

        def exploding_snapshot():
            entered.set()
            assert gate.wait(timeout=10)
            raise RuntimeError("partition state corrupted")

        original = store.skyline_snapshot
        store.skyline_snapshot = exploding_snapshot
        outcomes = []

        def worker():
            try:
                outcomes.append(service.query(spec))
            except RuntimeError as exc:
                outcomes.append(str(exc))

        threads = [threading.Thread(target=worker) for _ in range(2)]
        threads[0].start()
        assert entered.wait(timeout=10)
        threads[1].start()
        for _ in range(200):
            with service._lock:
                flights = list(service._flights.values())
            if flights and flights[0].requests == 2:
                break
            threading.Event().wait(0.01)
        gate.set()
        for t in threads:
            t.join(timeout=10)
        store.skyline_snapshot = original
        assert outcomes == ["partition state corrupted"] * 2


class TestStats:
    def test_stats_shape(self):
        service = _service()
        service.query(QuerySpec(dataset="qws"))
        stats = service.stats()
        assert stats["datasets"]["qws"]["generation"] == 1
        assert stats["datasets"]["qws"]["size"] == 100
        assert stats["queued"] == 0
        assert stats["inflight_computes"] == 0
        assert stats["counters"]["serve.requests"] == 1
        assert stats["cache"]["entries"] == 1

    def test_register_replaces_and_counts_datasets(self):
        service = _service()
        service.register("other", _points(10, seed=3))
        assert service.datasets() == ["other", "qws"]
        assert get_metrics().gauge("serve.datasets").value == 2
        service.register("qws", _points(20, seed=4))
        assert len(service.store("qws")) == 20

    def test_response_to_dict_round_trip(self):
        response = QueryResponse(
            dataset="qws", kind="skyline", ids=[1, 2], generations=(3,),
            cache_hit=True, latency_s=0.25,
        )
        record = response.to_dict()
        assert record["ids"] == [1, 2]
        assert record["generation"] == 3
        assert record["cache_hit"] is True
        assert record["status"] == "ok"
