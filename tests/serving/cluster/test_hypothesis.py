"""Property tests: random insert/remove/query interleavings vs a model.

Hypothesis drives arbitrary mutation/query schedules against a live
3-shard cluster and checks every answer against a per-generation
ground-truth model (a plain ``{global id: row}`` dict evaluated with the
single-node :func:`~repro.serving.queries.evaluate`).  Invariants:

* every query kind equals the model's answer, id for id;
* generation vectors never regress across any step;
* an unchanged generation vector means a repeated query is a cache hit
  with the identical answer.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serving.cluster import SHARD_FUNCTIONS, LocalCluster, ShardedBackend
from repro.serving.queries import QuerySpec, evaluate
from repro.serving.service import SkylineService

SHARDS = 3
D = 3

_counter = [0]


@pytest.fixture(scope="module")
def cluster():
    with LocalCluster(SHARDS) as fleet:
        yield fleet


def _coords_strategy():
    return st.lists(
        st.floats(0.015625, 1.0, allow_nan=False, width=32),
        min_size=D,
        max_size=D,
    )


@st.composite
def _schedule(draw):
    rows = draw(
        st.lists(_coords_strategy(), min_size=4, max_size=24)
    )
    steps = draw(
        st.lists(
            st.sampled_from(["insert", "remove", "skyline", "skyband",
                             "constrained", "subspace", "repeat"]),
            min_size=3,
            max_size=12,
        )
    )
    shard_fn = draw(st.sampled_from(list(SHARD_FUNCTIONS)))
    return rows, steps, shard_fn


def _spec(dataset, kind):
    if kind == "skyband":
        return QuerySpec(dataset=dataset, kind="skyband", k=2)
    if kind == "constrained":
        return QuerySpec(
            dataset=dataset,
            kind="constrained",
            lower=(0.0,) * D,
            upper=(0.8,) * D,
        )
    if kind == "subspace":
        return QuerySpec(dataset=dataset, kind="subspace", dims=(0, 2))
    return QuerySpec(dataset=dataset, kind="skyline")


def _model_answer(model, spec):
    if not model:
        return []
    ids = np.array(sorted(model), dtype=np.intp)
    rows = np.array([model[i] for i in sorted(model)], dtype=np.float64)
    return list(evaluate(spec, ids, rows))


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(schedule=_schedule())
def test_random_interleavings_match_model(cluster, schedule):
    rows, steps, shard_fn = schedule
    _counter[0] += 1
    dataset = f"hyp-{_counter[0]}"
    model = {i: list(row) for i, row in enumerate(rows)}
    rng = np.random.default_rng(_counter[0])

    with SkylineService(
        backend=ShardedBackend(cluster.addresses())
    ) as coordinator:
        gvec = coordinator.register(
            dataset, np.asarray(rows, dtype=np.float64), shard_fn=shard_fn
        )
        next_id = len(rows)
        last_answer = None

        for step in steps:
            if step == "insert":
                row = [float(v) for v in rng.uniform(0.01, 1.0, D)]
                gid, new_gvec = coordinator.insert(dataset, row)
                assert gid == next_id, "ids must be arrival-ordered"
                model[gid] = row
                next_id += 1
            elif step == "remove":
                if not model:
                    continue
                victim = int(rng.choice(sorted(model)))
                new_gvec = coordinator.remove(dataset, victim)
                del model[victim]
            elif step == "repeat" and last_answer is not None:
                kind, ids, at_gvec = last_answer
                again = coordinator.query(_spec(dataset, kind))
                if again.generations == at_gvec:
                    assert again.cache_hit, "stable gvec must hit the cache"
                    assert again.ids == ids
                new_gvec = again.generations
            else:
                kind = step if step != "repeat" else "skyline"
                spec = _spec(dataset, kind)
                response = coordinator.query(spec)
                assert not response.degraded
                assert response.ids == _model_answer(model, spec), (
                    kind, shard_fn, model
                )
                last_answer = (kind, response.ids, response.generations)
                new_gvec = response.generations

            assert len(new_gvec) == len(gvec)
            assert all(
                new >= old for new, old in zip(new_gvec, gvec)
            ), "generation vectors must never regress"
            gvec = tuple(new_gvec)
