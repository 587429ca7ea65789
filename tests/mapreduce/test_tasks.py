"""Tests for mapper/reducer execution and the map-side combiner."""

import pytest

from repro.mapreduce.counters import Counters
from repro.mapreduce.errors import TaskError
from repro.mapreduce.tasks import (
    IdentityMapper,
    IdentityReducer,
    MapContext,
    Mapper,
    ReduceContext,
    Reducer,
    run_map_task,
    run_reduce_task,
)


class TokenMapper(Mapper):
    def map(self, key, value, ctx):
        for word in value.split():
            ctx.emit(word, 1)


class SumReducer(Reducer):
    def reduce(self, key, values, ctx):
        ctx.emit(key, sum(values))


class FailingMapper(Mapper):
    def map(self, key, value, ctx):
        raise RuntimeError("boom")


class ParamEchoMapper(Mapper):
    def map(self, key, value, ctx):
        ctx.emit(key, self.params["tag"])


def _hash_partition(key, n):
    return hash(key) % n


class TestRunMapTask:
    def test_basic_emit_and_partition(self):
        buffers, counters, duration, rin, rout = run_map_task(
            "map-0",
            TokenMapper,
            [(None, "a b"), (None, "b c")],
            {},
            2,
            lambda k, n: 0 if k < "b" else 1,
            None,
        )
        assert rin == 2 and rout == 4
        assert sorted(buffers[0]) == [("a", 1)]
        assert sorted(buffers[1]) == [("b", 1), ("b", 1), ("c", 1)]
        assert duration >= 0
        assert counters.value("framework", "map_input_records") == 2

    def test_params_reach_mapper(self):
        buffers, *_ = run_map_task(
            "map-0",
            ParamEchoMapper,
            [("k", None)],
            {"tag": "hello"},
            1,
            _hash_partition,
            None,
        )
        assert buffers[0] == [("k", "hello")]

    def test_user_error_wrapped(self):
        with pytest.raises(TaskError) as info:
            run_map_task(
                "map-3",
                FailingMapper,
                [(None, "x")],
                {},
                1,
                _hash_partition,
                None,
            )
        assert info.value.task_id == "map-3"
        assert isinstance(info.value.cause, RuntimeError)

    def test_bad_partition_index_rejected(self):
        with pytest.raises(TaskError):
            run_map_task(
                "map-0",
                IdentityMapper,
                [("k", 1)],
                {},
                2,
                lambda k, n: 5,
                None,
            )

    def test_identity_mapper(self):
        buffers, *_ = run_map_task(
            "map-0",
            IdentityMapper,
            [("k", "v")],
            {},
            1,
            _hash_partition,
            None,
        )
        assert buffers[0] == [("k", "v")]


class TestCombiner:
    def test_final_combine_shrinks_output(self):
        buffers, counters, _, _, rout = run_map_task(
            "map-0",
            TokenMapper,
            [(None, "a a a b")],
            {},
            1,
            _hash_partition,
            SumReducer,
        )
        assert sorted(buffers[0]) == [("a", 3), ("b", 1)]
        assert rout == 2  # post-combine record count
        assert counters.value("framework", "combiner_invocations") == 1

    def test_combiner_result_matches_no_combiner_after_reduce(self):
        records = [(None, "x y x"), (None, "y y z")]
        for combiner in (None, SumReducer):
            buffers, *_ = run_map_task(
                "m", TokenMapper, records, {}, 1, _hash_partition, combiner
            )
            grouped = {}
            for k, v in buffers[0]:
                grouped.setdefault(k, []).append(v)
            out, *_ = run_reduce_task(
                "r", SumReducer, sorted(grouped.items()), {}
            )
            assert dict(out) == {"x": 2, "y": 3, "z": 1}


class TestRunReduceTask:
    def test_basic(self):
        out, counters, duration, rin, rout = run_reduce_task(
            "reduce-0",
            SumReducer,
            [("a", [1, 2]), ("b", [3])],
            {},
        )
        assert out == [("a", 3), ("b", 3)]
        assert rin == 3 and rout == 2
        assert counters.value("framework", "reduce_input_records") == 3

    def test_empty_input(self):
        out, _, _, rin, rout = run_reduce_task("reduce-0", SumReducer, [], {})
        assert out == [] and rin == 0 and rout == 0

    def test_identity_reducer(self):
        out, *_ = run_reduce_task(
            "r", IdentityReducer, [("k", [1, 2])], {}
        )
        assert out == [("k", 1), ("k", 2)]

    def test_user_error_wrapped(self):
        class Bad(Reducer):
            def reduce(self, key, values, ctx):
                raise ValueError("nope")

        with pytest.raises(TaskError) as info:
            run_reduce_task("reduce-7", Bad, [("k", [1])], {})
        assert info.value.task_id == "reduce-7"


class TestContexts:
    def test_map_context_counts(self):
        ctx = MapContext({}, Counters(), 2, _hash_partition)
        ctx.emit("a", 1)
        ctx.emit("b", 2)
        assert ctx.records_out == 2

    def test_map_context_rejects_zero_partitions(self):
        with pytest.raises(ValueError):
            MapContext({}, Counters(), 0, _hash_partition)

    def test_reduce_context_collects(self):
        ctx = ReduceContext({"p": 1}, Counters())
        ctx.emit("k", "v")
        ctx.increment("g", "n", 2)
        assert ctx.output == [("k", "v")]
        assert ctx.counters.value("g", "n") == 2
