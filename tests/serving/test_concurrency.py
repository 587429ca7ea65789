"""Concurrency stress: every served answer matches SOME generation's truth.

A single writer thread mutates a store/service while reader threads hammer
it; the writer records the membership snapshot after every mutation, and
at the end every answer a reader got is checked against the recorded
ground truth of the generation it was labelled with.  The overload case
runs on both front ends: a single node and a 2-shard cluster coordinator.
Plus a hypothesis property test driving random insert/remove sequences
through the store.
"""

import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce.faults import FaultPlan, FaultRule
from repro.observability.metrics import get_metrics
from repro.serving.cluster import LocalCluster, ShardedBackend
from repro.serving.queries import QuerySpec, evaluate
from repro.serving.service import (
    ServeConfig,
    ServiceOverloadedError,
    SkylineService,
)
from repro.serving.store import SkylineStore


def _points(n=60, d=3, seed=0):
    return np.random.default_rng(seed).random((n, d)) + 0.01


class _History:
    """Generation -> (ids, rows) ground truth, recorded by the one writer."""

    def __init__(self, store):
        self.store = store
        self.lock = threading.Lock()
        self.snapshots = {}
        self.record()

    def record(self):
        snap = self.store.snapshot()
        with self.lock:
            self.snapshots[snap.generation] = snap

    def verify(self, generation, ids, spec):
        snap = self.snapshots[generation]
        assert ids == evaluate(spec, snap.ids, snap.rows), (
            f"generation {generation}: served {ids}"
        )


def _run_writer(store, history, steps, seed=1):
    rng = np.random.default_rng(seed)
    live = sorted(int(i) for i in store.snapshot().ids)
    for _ in range(steps):
        if live and rng.random() < 0.4:
            victim = int(rng.choice(live))
            store.remove(victim)
            live.remove(victim)
        else:
            pid, _ = store.insert(rng.random(3) + 0.01)
            live.append(pid)
        history.record()


class TestStoreStress:
    def test_concurrent_readers_always_see_a_consistent_generation(self):
        store = SkylineStore("qws", _points())
        history = _History(store)
        spec = QuerySpec(dataset="qws")
        stop = threading.Event()
        answers = []

        def reader():
            local = []
            while not stop.is_set():
                generation, ids = store.skyline_snapshot()
                local.append((generation, ids))
            return local

        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(reader) for _ in range(4)]
            _run_writer(store, history, steps=60)
            stop.set()
            for future in futures:
                answers.extend(future.result())

        assert answers
        seen_generations = {generation for generation, _ in answers}
        assert len(seen_generations) > 1, "readers never observed a mutation"
        for generation, ids in answers:
            history.verify(generation, ids, spec)


class TestServiceStress:
    def test_every_answer_matches_its_generation(self):
        service = SkylineService(ServeConfig(max_inflight=4, max_queue=8))
        service.register("qws", _points())
        history = _History(service.store("qws"))
        specs = [
            QuerySpec(dataset="qws"),
            QuerySpec(dataset="qws", kind="skyband", k=2),
            QuerySpec(dataset="qws", kind="subspace", dims=(0, 2)),
        ]
        stop = threading.Event()
        answers = []

        def reader(index):
            local = []
            rng = np.random.default_rng(100 + index)
            while not stop.is_set():
                spec = specs[int(rng.integers(len(specs)))]
                try:
                    response = service.query(spec)
                except ServiceOverloadedError:
                    continue  # shed without a stale answer: no wrong data
                local.append((spec, response))
            return local

        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(reader, i) for i in range(4)]
            _run_writer(service.store("qws"), history, steps=50)
            stop.set()
            for future in futures:
                answers.extend(future.result())

        assert answers
        for spec, response in answers:
            history.verify(response.generation, response.ids, spec)

    @pytest.mark.parametrize("plane", ["single", "cluster"])
    def test_overload_sheds_without_wrong_answers(self, plane):
        with _overloaded(plane) as (service, write, verify):
            spec = QuerySpec(dataset="qws")
            service.query(spec)  # warm the stale path
            answers = []
            rejections = []
            stop = threading.Event()
            answers_lock = threading.Lock()
            # The 20 writes take less than one interpreter switch interval,
            # so the writer waits until every reader has queried once:
            # otherwise it can finish before any reader runs.
            looping = threading.Semaphore(0)

            def reader():
                first = True
                while not stop.is_set():
                    try:
                        response = service.query(spec)
                        with answers_lock:
                            answers.append(response)
                    except ServiceOverloadedError:
                        with answers_lock:
                            rejections.append(1)
                    if first:
                        first = False
                        looping.release()

            threads = [threading.Thread(target=reader) for _ in range(6)]
            for t in threads:
                t.start()
            for _ in threads:
                assert looping.acquire(timeout=30), "a reader never queried"
            write(steps=20)
            stop.set()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)

            shed = get_metrics().counter(f"{service.backend.plane}.shed").value
            assert shed > 0, "over-admission never shed a request"
            for response in answers:
                verify(response, spec)

    def test_identical_cluster_queries_share_one_fan_out(self):
        # Slow legs keep the leader's fan-out open while the followers
        # arrive; every leg is one shard-side ``shard_candidates`` call.
        slow = FaultRule(fault="slow", kind="map", times=None, slow_s=0.3)
        with LocalCluster(2) as fleet:
            backend = ShardedBackend(
                fleet.addresses(), fault_plan=FaultPlan(seed=5, rules=(slow,))
            )
            with SkylineService(backend=backend) as coordinator:
                coordinator.register("qws", _points(), shard_fn="angle")
                served = get_metrics().counter("serve.shard.served")
                before = served.value
                spec = QuerySpec(dataset="qws", kind="skyband", k=2)
                start = threading.Barrier(4)

                def worker():
                    start.wait()
                    return coordinator.query(spec)

                with ThreadPoolExecutor(max_workers=4) as pool:
                    responses = list(pool.map(lambda _: worker(), range(4)))
        assert served.value - before == 2, "one leg per shard, not per request"
        assert sum(1 for r in responses if r.coalesced) == 3
        assert len({tuple(r.ids) for r in responses}) == 1
        assert get_metrics().counter("serve.cluster.coalesced").value == 3


@contextmanager
def _overloaded(plane):
    """A front end with one admission permit and slow computes, plus its
    writer and the check of an answer against the truth at its label."""
    config = ServeConfig(max_inflight=1, max_queue=0, stale_on_overload=True)
    if plane == "single":
        service = SkylineService(config)
        service.register("qws", _points())
        store = service.store("qws")
        history = _History(store)
        # Make each compute hold the single admission permit long enough
        # that concurrent queries genuinely overflow capacity.
        original_snapshot = store.skyline_snapshot

        def slow_snapshot():
            result = original_snapshot()
            threading.Event().wait(0.005)
            return result

        store.skyline_snapshot = slow_snapshot
        yield (
            service,
            lambda steps: _run_writer(store, history, steps),
            lambda response, spec: history.verify(
                response.generation, response.ids, spec
            ),
        )
        return
    slow = FaultRule(fault="slow", kind="map", times=None, slow_s=0.005)
    with LocalCluster(2) as fleet:
        backend = ShardedBackend(
            fleet.addresses(), fault_plan=FaultPlan(seed=3, rules=(slow,))
        )
        with SkylineService(config, backend=backend) as service:
            service.register("qws", _points(), shard_fn="hash")
            history = _ShardHistory(service, _points())
            yield service, history.write, history.verify


class _ShardHistory:
    """Ground truth of a hash-sharded dataset at any per-shard generation
    vector: each shard's writes, in order, with the generation they made."""

    def __init__(self, service, rows):
        self.service = service
        self.initial = {i: row for i, row in enumerate(rows)}
        self.writes = []  # (shard, generation, id, row or None = removed)

    def write(self, steps, seed=1):
        rng = np.random.default_rng(seed)
        backend = self.service.backend
        live = list(self.initial)
        for _ in range(steps):
            if rng.random() < 0.4:
                victim = int(rng.choice(live))
                shard = backend.shard_of("qws", victim)
                gvec = self.service.remove("qws", victim)
                live.remove(victim)
                self.writes.append((shard, gvec[shard], victim, None))
            else:
                row = rng.random(3) + 0.01
                pid, gvec = self.service.insert("qws", row)
                shard = backend.shard_of("qws", pid)
                live.append(pid)
                self.writes.append((shard, gvec[shard], pid, row))

    def verify(self, response, spec):
        members = dict(self.initial)
        for shard, generation, pid, row in self.writes:
            if generation <= response.generations[shard]:
                if row is None:
                    del members[pid]
                else:
                    members[pid] = row
        ids = np.array(sorted(members), dtype=np.intp)
        rows = np.array([members[i] for i in sorted(members)])
        assert response.ids == evaluate(spec, ids, rows), (
            f"generations {response.generations}: served {response.ids}"
        )


coords = st.tuples(
    st.floats(0.01, 10.0, allow_nan=False),
    st.floats(0.01, 10.0, allow_nan=False),
    st.floats(0.01, 10.0, allow_nan=False),
)


@settings(max_examples=25, deadline=None)
@given(ops=st.lists(
    st.one_of(coords, st.integers(min_value=0, max_value=200)),
    min_size=1, max_size=40,
))
def test_store_insert_remove_sequences_stay_consistent(ops):
    """Random insert/remove scripts: generation labels never lie."""
    store = SkylineStore("qws")
    live = []
    last_generation = 0
    for op in ops:
        if isinstance(op, tuple):
            pid, generation = store.insert(np.array(op))
            live.append(pid)
        elif live:
            victim = live[op % len(live)]
            generation = store.remove(victim)
            live.remove(victim)
        else:
            continue
        assert generation == last_generation + 1, "generations must be dense"
        last_generation = generation
        snap = store.snapshot()
        assert snap.generation == generation
        assert sorted(int(i) for i in snap.ids) == sorted(live)
        got = store.skyline_snapshot()
        assert got[0] == generation
        assert got[1] == evaluate(QuerySpec(dataset="qws"), snap.ids, snap.rows)
