from itertools import islice

import numpy as np

from perfbench import streams


def _wire(stream, n):
    return b"".join(streams.encode(r) for r in islice(stream, n))


def test_mixed_stream_never_removes_an_id_twice():
    removed = [r["id"] for r in islice(streams.mixed_stream(3, 200, 4), 20_000)
               if r["op"] == "remove"]
    assert len(removed) == len(set(removed)) == 200  # runs out, never repeats
    # once every initial id is gone, remove slots become inserts
    assert all(0 <= i < 200 for i in removed)


def test_streams_are_byte_identical_for_one_seed():
    assert _wire(streams.mixed_stream(7, 1000, 4), 3000) == \
        _wire(streams.mixed_stream(7, 1000, 4), 3000)
    assert _wire(streams.mixed_stream(7, 1000, 4), 3000) != \
        _wire(streams.mixed_stream(8, 1000, 4), 3000)
    points = streams.uniform_points(500, 6, 7)
    specs = streams.hot_specs(points, 7)
    assert specs == streams.hot_specs(points, 7)
    assert _wire(streams.hot_stream(7, specs), 3000) == \
        _wire(streams.hot_stream(7, specs), 3000)


def test_every_block_holds_the_exact_mix():
    block = streams.MIXED_BLOCK
    sample = list(islice(streams.mixed_stream(1, 10_000, 4), 3 * block))
    for start in range(0, len(sample), block):
        chunk = sample[start:start + block]
        kinds = [r.get("kind", r["op"]) for r in chunk]
        counts = {k: kinds.count(k) for k in set(kinds)}
        assert counts == {**dict(streams.MIXED_QUERIES), "insert": 5, "remove": 5}
        assert all(r["op"] != "query" for r in chunk[::streams.MIXED_WRITE_EVERY])
    assert sample[:block] != sample[block:2 * block]  # each block reshuffled


def test_hot_stream_draws_from_at_most_sixteen_tuples():
    points = streams.uniform_points(500, 6, 1)
    specs = streams.hot_specs(points, 1)
    seen = {streams.encode(r) for r in islice(streams.hot_stream(1, specs), 5000)}
    assert len(specs) <= streams.HOT_PARAM_TUPLES and len(seen) <= len(specs) + 1


def test_membership_follows_acknowledged_mutations():
    model = streams.Membership.of(np.array([[0.5, 0.5], [0.2, 0.9]]))
    model.apply({"op": "insert", "point": [0.1, 0.1]}, {"ok": True, "id": 2})
    model.apply({"op": "remove", "id": 0}, {"ok": True})
    assert sorted(model.rows) == [1, 2] and model.mutations == 2
    assert model.expected({"kind": "skyline"}) == [2]
