"""Seeded inputs: datasets, request streams and the membership model.

Everything a workload sends is a pure function of its seed, so two runs
with one seed offer byte-identical streams (``encode`` is the wire form).
The program under test only ever sees the generated requests.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Any, Dict, Iterator, List, Sequence, Tuple

import numpy as np

MIXED_N = 1_000
MIXED_D = 4
HOT_N = 10_000
HOT_D = 6
BATCH_N = 100_000
BATCH_D = 8
QWS_BASE_N = 10_000

#: serve-mixed: every block of 110 requests holds exactly this mix (55%
#: skyline, 20% skyband, 15% constrained, 10% subspace queries, plus 10%
#: mutations), with a mutation in every eleventh slot.  Fixing the counts
#: and the write spacing, and drawing only the query order and all
#: parameters, keeps the share of cache hits from drifting between seeds.
MIXED_QUERIES = (("skyline", 55), ("skyband", 20), ("constrained", 15), ("subspace", 10))
MIXED_WRITE_EVERY = 11
MIXED_BLOCK = 110
#: serve-hot: per block of 100, 75 skyline and 25 from the fixed tuples.
HOT_QUERIES = (("skyline", 75), ("tuple", 25))
HOT_BLOCK = 100
#: serve-hot draws its constrained/subspace queries from this many tuples.
HOT_PARAM_TUPLES = 16

DATASET = "bench"


#: Seed of every workload's dataset.  A workload is defined by its data, so
#: the data is the same for every run; the run seed draws what is sent to
#: it.  (Row order is not drawn either: it picks the filter-point sample of
#: the MR job and so changes how much work the same data implies.)
DATA_SEED = 2012


def qws_points(n: int, d: int, seed: int = DATA_SEED) -> np.ndarray:
    """QWS-like services (extended past the base size as the paper does)."""
    from repro.services.qws import extend_dataset, generate_qws

    base = generate_qws(min(n, QWS_BASE_N), seed=seed)
    ds = base if n <= QWS_BASE_N else extend_dataset(base, n, seed=seed + 1)
    return np.ascontiguousarray(ds.qos_matrix(d))


def uniform_points(n: int, d: int, seed: int = DATA_SEED) -> np.ndarray:
    """Independent uniform points, rounded so the wire form is exact."""
    return np.round(np.random.default_rng(seed).random((n, d)), 6)


def encode(request: Dict[str, Any]) -> bytes:
    return (json.dumps(request, separators=(",", ":")) + "\n").encode()


def _box(rng: random.Random, lo_q: np.ndarray, hi_q: np.ndarray) -> Dict[str, Any]:
    """A constrained query box between per-dimension quantile rows."""
    lower, upper = [], []
    for j in range(lo_q.shape[0]):
        a = lo_q[j] + rng.random() * (hi_q[j] - lo_q[j]) * 0.3
        lower.append(round(float(a), 6))
        upper.append(round(float(a + (hi_q[j] - lo_q[j]) * 0.6), 6))
    return {"kind": "constrained", "lower": lower, "upper": upper}


def hot_specs(points: np.ndarray, seed: int) -> List[Dict[str, Any]]:
    """The <= 16 fixed constrained/subspace tuples of serve-hot."""
    rng = random.Random(f"hot-specs-{seed}")
    lo_q = np.quantile(points, 0.0, axis=0)
    hi_q = np.quantile(points, 0.9, axis=0)
    d = points.shape[1]
    specs: List[Dict[str, Any]] = []
    subspaces = [list(c) for w in (2, 3) for c in combinations(range(d), w)]
    rng.shuffle(subspaces)
    for i in range(HOT_PARAM_TUPLES):
        if i % 2:
            specs.append({"kind": "subspace", "dims": subspaces[i // 2]})
        else:
            specs.append(_box(rng, lo_q, hi_q))
    return specs


def _shuffled(rng: random.Random, counts: Sequence[Tuple[str, int]]) -> List[str]:
    slots = [kind for kind, count in counts for _ in range(count)]
    rng.shuffle(slots)
    return slots


def hot_stream(seed: int, specs: Sequence[Dict[str, Any]]) -> Iterator[Dict[str, Any]]:
    """serve-hot: 75% skyline, 25% drawn from the fixed tuples; no writes."""
    rng = random.Random(f"hot-stream-{seed}")
    while True:
        for slot in _shuffled(rng, HOT_QUERIES):
            if slot == "skyline":
                yield {"op": "query", "dataset": DATASET, "kind": "skyline"}
            else:
                yield {"op": "query", "dataset": DATASET, **rng.choice(specs)}


def mixed_stream(seed: int, n_initial: int, d: int) -> Iterator[Dict[str, Any]]:
    """serve-mixed / serve-cluster: reads with 10% inserts and removes.

    Every remove names an initial id no earlier request removed, so a
    failed remove is a real error, never an expected double remove.
    """
    rng = random.Random(f"mixed-stream-{seed}")
    alive = list(range(n_initial))
    writes = MIXED_BLOCK // MIXED_WRITE_EVERY
    while True:
        queries = iter(_shuffled(rng, MIXED_QUERIES))
        kinds = _shuffled(rng, (("insert", writes // 2), ("remove", writes - writes // 2)))
        block = [kinds[i // MIXED_WRITE_EVERY] if i % MIXED_WRITE_EVERY == 0
                 else next(queries) for i in range(MIXED_BLOCK)]
        yield from _mixed_block(rng, block, alive, d)


def _mixed_block(rng: random.Random, block: Sequence[str], alive: List[int], d: int
                 ) -> Iterator[Dict[str, Any]]:
    for slot in block:
        if slot == "remove" and alive:
            pick = rng.randrange(len(alive))
            alive[pick], alive[-1] = alive[-1], alive[pick]
            yield {"op": "remove", "dataset": DATASET, "id": alive.pop()}
            continue
        if slot in ("insert", "remove"):
            point = [round(rng.random(), 6) for _ in range(d)]
            yield {"op": "insert", "dataset": DATASET, "point": point}
            continue
        request: Dict[str, Any] = {"op": "query", "dataset": DATASET, "kind": slot}
        if slot == "skyband":
            request["k"] = rng.randrange(1, 4)
        elif slot == "constrained":
            lower = [round(rng.random() * 0.3, 3) for _ in range(d)]
            request["lower"] = lower
            request["upper"] = [round(v + 0.5, 3) for v in lower]
        elif slot == "subspace":
            request["dims"] = sorted(rng.sample(range(d), rng.randrange(2, d + 1)))
        yield request


def take(stream: Iterator[Dict[str, Any]], count: int, first_rid: int) -> List[Dict[str, Any]]:
    """The next ``count`` requests, each tagged with its request id."""
    return [{**next(stream), "rid": first_rid + i} for i in range(count)]


def check_specs(d: int, seed: int) -> List[Dict[str, Any]]:
    """Every query kind, for the post-traffic correctness gate."""
    rng = random.Random(f"check-{seed}")
    specs: List[Dict[str, Any]] = [{"kind": "skyline"}]
    specs += [{"kind": "skyband", "k": k} for k in (1, 2, 3)]
    for _ in range(3):
        lower = [round(rng.random() * 0.3, 3) for _ in range(d)]
        specs.append({"kind": "constrained", "lower": lower,
                      "upper": [round(v + 0.5, 3) for v in lower]})
    specs += [{"kind": "subspace", "dims": list(c)}
              for w in range(2, d + 1) for c in combinations(range(d), w)][:6]
    return specs


@dataclass
class Membership:
    """The dataset implied by the register and the acknowledged mutations."""

    rows: Dict[int, Tuple[float, ...]] = field(default_factory=dict)
    mutations: int = 0
    _answers: Dict[str, List[int]] = field(default_factory=dict, repr=False)

    @classmethod
    def of(cls, points: np.ndarray) -> "Membership":
        return cls({i: tuple(map(float, row)) for i, row in enumerate(points)})

    def apply(self, request: Dict[str, Any], response: Dict[str, Any]) -> None:
        """Fold in one acknowledged mutation (``response["ok"]`` is true)."""
        if request["op"] == "insert":
            self.rows[int(response["id"])] = tuple(map(float, request["point"]))
        elif request["op"] == "remove":
            del self.rows[int(request["id"])]
        else:
            return
        self.mutations += 1
        self._answers.clear()

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        ids = sorted(self.rows)
        return np.asarray(ids, dtype=np.intp), np.asarray([self.rows[i] for i in ids])

    def expected(self, spec: Dict[str, Any]) -> List[int]:
        """From-scratch reference answer (``repro.serving.queries.evaluate``)."""
        from repro.serving.queries import QuerySpec, evaluate

        key = json.dumps(spec, sort_keys=True)
        if key not in self._answers:
            ids, rows = self.arrays()
            query = QuerySpec(dataset=DATASET, kind=spec["kind"], k=spec.get("k"),
                              lower=spec.get("lower"), upper=spec.get("upper"),
                              dims=spec.get("dims"))
            self._answers[key] = evaluate(query, ids, rows)
        return self._answers[key]
