"""Acceptance: served answers equal from-scratch batch computation.

For each query kind, after any script of inserts/removes, the service's
answer must equal :func:`repro.serving.queries.evaluate` run from scratch
over the membership snapshot of the same generation — under both
dominance kernels, with removals that hit current skyline members (the
step that exposes local skylines missing a row).
"""

import numpy as np
import pytest

from repro.serving.queries import QuerySpec, evaluate
from repro.serving.service import ServeConfig, SkylineService


def _specs(d):
    return [
        QuerySpec(dataset="qws"),
        QuerySpec(dataset="qws", kind="skyband", k=2),
        QuerySpec(dataset="qws", kind="skyband", k=4),
        QuerySpec(
            dataset="qws", kind="constrained",
            lower=(0.1,) * d, upper=(0.75,) * d,
        ),
        QuerySpec(dataset="qws", kind="subspace", dims=(0, d - 1)),
    ]


def _script(rng, service, live_ids):
    """One mutation step: mostly inserts, removals once enough points live;
    some removals take a current skyline member."""
    roll = rng.random()
    if live_ids and roll < 0.4:
        if roll < 0.2:
            _, pool = service.store("qws").skyline_snapshot()
        else:
            pool = live_ids
        victim = int(rng.choice(pool))
        service.remove("qws", victim)
        live_ids.remove(victim)
    else:
        point = rng.random(3) + 0.01
        pid, _ = service.insert("qws", point)
        live_ids.append(pid)


@pytest.mark.parametrize("kernel", ["scalar", "block"])
def test_served_answers_match_batch_recomputation(kernel):
    rng = np.random.default_rng(42)
    points = rng.random((150, 3)) + 0.01
    service = SkylineService(ServeConfig(kernel=kernel))
    service.register("qws", points)
    live_ids = list(range(150))

    for step in range(25):
        _script(rng, service, live_ids)
        snap = service.store("qws").snapshot()
        for spec in _specs(3):
            response = service.query(spec)
            assert response.generation == snap.generation, spec.describe()
            expected = evaluate(spec, snap.ids, snap.rows)
            assert response.ids == expected, (
                f"step {step}, {spec.describe()}: served {response.ids} "
                f"!= batch {expected} at generation {snap.generation}"
            )
        # Re-asking within the same generation must hit the cache and agree.
        for spec in _specs(3):
            again = service.query(spec)
            assert again.cache_hit
            assert again.ids == evaluate(spec, snap.ids, snap.rows)


def test_generation_labels_are_reproducible():
    """An answer labelled generation g matches recomputation at g, later."""
    rng = np.random.default_rng(7)
    service = SkylineService()
    service.register("qws", rng.random((80, 3)) + 0.01)
    history = {}
    answers = []
    live = list(range(80))
    for _ in range(15):
        _script(rng, service, live)
        snap = service.store("qws").snapshot()
        history[snap.generation] = snap
        answers.append((service.query(QuerySpec(dataset="qws")), snap.generation))
    for response, generation in answers:
        snap = history[generation]
        assert response.generation == generation
        assert response.ids == evaluate(
            QuerySpec(dataset="qws"), snap.ids, snap.rows
        )
