"""Chaos leg: shard crash / hang / slow must degrade, never corrupt.

Two failure injectors, the same assertions:

* :meth:`LocalCluster.kill` — a real crash: the accept loop stops and the
  established connections are severed mid-stream;
* a PR-4 :class:`~repro.mapreduce.faults.FaultPlan` wired through
  ``ShardedBackend(fault_plan=...)`` — deterministic crash / cooperative-hang /
  slow decisions per fan-out leg.

Invariants under loss:

* a query with surviving shards answers ``degraded`` (never raises), its
  ids bracketed by soundness: every true global-answer point on a
  surviving shard is present, and nothing beyond the survivors-only
  answer appears;
* generation vectors never regress;
* every loss shows up in ``serve.shard.lost`` (counter and event);
* with every shard gone: a stale cached answer if one exists, else
  :class:`ClusterUnavailableError` — still not a hang.
"""

import numpy as np
import pytest

from repro.mapreduce.faults import FaultPlan, FaultRule
from repro.observability.metrics import get_metrics
from repro.serving.cluster import (
    ClusterUnavailableError,
    LocalCluster,
    ShardedBackend,
)
from repro.serving.queries import QuerySpec, evaluate
from repro.serving.service import SkylineService

SHARDS = 3


def _points(n=90, d=3, seed=5):
    return np.random.default_rng(seed).random((n, d)) + 0.01


def _assert_degraded_bracket(coordinator, dataset, rows, spec, dead, answer):
    """The degraded-answer soundness bracket.

    The coordinator broadcasts filter points computed over the *full*
    dataset, so surviving shards may legitimately prune rows that only a
    dead shard's row dominates.  The guarantees are therefore:

    * **complete over survivors**: every true global-answer point that
      lives on a surviving shard is in the degraded answer;
    * **sound over survivors**: nothing outside the survivors-only
      answer (as if the dead shard's rows never existed) sneaks in.
    """
    all_ids = np.arange(rows.shape[0], dtype=np.intp)
    true_answer = set(evaluate(spec, all_ids, rows))
    survivors = [
        i for i in range(rows.shape[0])
        if coordinator.backend.shard_of(dataset, i) not in dead
    ]
    ids = np.array(survivors, dtype=np.intp)
    survivors_only = set(evaluate(spec, ids, rows[ids]))
    got = set(answer)
    assert true_answer & set(survivors) <= got, (
        "degraded answer lost surviving true-answer points: "
        f"{sorted(true_answer & set(survivors) - got)}"
    )
    assert got <= survivors_only, (
        f"degraded answer invented points: {sorted(got - survivors_only)}"
    )
    assert got, "degraded answer must not be empty here"


class TestKilledShard:
    def test_degraded_answer_is_sound_over_survivors(self):
        rows = _points()
        with LocalCluster(SHARDS) as fleet:
            coordinator = SkylineService(
                backend=ShardedBackend(fleet.addresses(), shard_timeout_s=2.0)
            )
            with coordinator:
                coordinator.register("chaos", rows, shard_fn="angle")
                full = coordinator.query(QuerySpec(dataset="chaos"))
                assert not full.degraded

                fleet.kill(1)
                # An uncached shape: the gvec is unchanged, so the cached
                # skyline would (correctly!) still be served fresh.
                spec = QuerySpec(dataset="chaos", kind="skyband", k=2)
                hurt = coordinator.query(spec)
                assert hurt.degraded and hurt.status == "degraded"
                assert hurt.missing_shards == [1]
                _assert_degraded_bracket(
                    coordinator, "chaos", rows, spec, {1}, hurt.ids
                )
                # Monotone generations, even hearing from fewer shards.
                assert all(
                    new >= old
                    for new, old in zip(hurt.generations, full.generations)
                )

                counters = get_metrics().snapshot()["counters"]
                assert counters["serve.shard.lost"] >= 1
                lost_events = [
                    e for e in coordinator.events_tail(50)
                    if e["kind"] == "serve.shard.lost"
                ]
                assert any(e["shard"] == 1 for e in lost_events)

    def test_unchanged_gvec_still_hits_cache_after_kill(self):
        # Shard loss does not invalidate: at an unchanged generation
        # vector the cached full answer is still the right answer.
        with LocalCluster(SHARDS) as fleet:
            with SkylineService(backend=ShardedBackend(fleet.addresses())) as coordinator:
                coordinator.register("chaos", _points(), shard_fn="hash")
                spec = QuerySpec(dataset="chaos")
                full = coordinator.query(spec)
                fleet.kill(0)
                cached = coordinator.query(spec)
                assert cached.cache_hit and not cached.degraded
                assert cached.ids == full.ids

    def test_all_shards_lost_serves_stale_else_raises(self):
        with LocalCluster(SHARDS) as fleet:
            with SkylineService(backend=ShardedBackend(fleet.addresses())) as coordinator:
                coordinator.register("chaos", _points(), shard_fn="grid")
                spec = QuerySpec(dataset="chaos")
                full = coordinator.query(spec)
                fleet.close()  # every shard gone

                # The skyline at the old gvec is cached: served stale.
                stale = coordinator.query(
                    QuerySpec(dataset="chaos"), deadline_s=5.0
                )
                assert stale.cache_hit or stale.degraded
                assert stale.ids == full.ids

                # Never cached: nothing to fall back to.
                with pytest.raises(ClusterUnavailableError):
                    coordinator.query(
                        QuerySpec(dataset="chaos", kind="skyband", k=2),
                        deadline_s=5.0,
                    )

    def test_writes_to_a_dead_shard_surface_as_errors(self):
        # Writes have no replica to degrade to: they must raise, not
        # silently drop the mutation.
        rows = _points()
        with LocalCluster(SHARDS) as fleet:
            with SkylineService(backend=ShardedBackend(fleet.addresses())) as coordinator:
                coordinator.register("chaos", rows, shard_fn="angle")
                victim = next(
                    i for i in range(rows.shape[0])
                    if coordinator.backend.shard_of("chaos", i) == 2
                )
                fleet.kill(2)
                with pytest.raises(Exception):
                    coordinator.remove("chaos", victim)


class TestInjectedFaults:
    def _coordinator(self, fleet, *rules, timeout_s=0.5):
        return SkylineService(
            backend=ShardedBackend(
                fleet.addresses(),
                shard_timeout_s=timeout_s,
                fault_plan=FaultPlan(seed=11, rules=tuple(rules)),
            ),
        )

    @pytest.mark.parametrize(
        "rule",
        [
            FaultRule(fault="crash", kind="map", index=0, times=1),
            FaultRule(
                fault="hang", kind="map", index=0, times=1,
                hang_s=30.0, cooperative=True,
            ),
        ],
        ids=["crash", "hang"],
    )
    def test_injected_loss_degrades_then_recovers(self, rule):
        rows = _points()
        with LocalCluster(SHARDS) as fleet:
            with self._coordinator(fleet, rule) as coordinator:
                coordinator.register("chaos", rows, shard_fn="angle")
                spec = QuerySpec(dataset="chaos")
                hurt = coordinator.query(spec)
                assert hurt.degraded and hurt.missing_shards == [0]
                _assert_degraded_bracket(
                    coordinator, "chaos", rows, spec, {0}, hurt.ids
                )
                # times=1: the rule is exhausted, full answers return
                # (degraded results are never cached, so no staleness).
                healed = coordinator.query(spec)
                assert not healed.degraded and not healed.cache_hit
                assert healed.missing_shards == []

    def test_slow_shard_inside_budget_is_not_lost(self):
        rule = FaultRule(
            fault="slow", kind="map", index=1, times=1, slow_s=0.05
        )
        with LocalCluster(SHARDS) as fleet:
            with self._coordinator(fleet, rule, timeout_s=5.0) as coordinator:
                coordinator.register("chaos", _points(), shard_fn="angle")
                response = coordinator.query(QuerySpec(dataset="chaos"))
                assert not response.degraded
