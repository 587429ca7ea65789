"""StreamingShuffle parity with the batch shuffle.

The streaming form's contract is *exact* output equivalence with
:func:`repro.mapreduce.shuffle.shuffle` — same key order, same value order
within a key, same stats volume — for any ingestion order.  Hypothesis
drives the map outputs and the arrival
permutation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce.shuffle import StreamingShuffle, shuffle


def _split_into_map_outputs(pairs, num_maps, num_partitions):
    """Round-robin pairs over map tasks, partition by key mod."""
    outputs = []
    for m in range(num_maps):
        buffers = [[] for _ in range(num_partitions)]
        for k, v in pairs[m::num_maps]:
            buffers[k % num_partitions].append((k, v))
        outputs.append(buffers)
    return outputs


def _stream(map_outputs, num_partitions, order):
    ss = StreamingShuffle(len(map_outputs), num_partitions)
    with ss:
        for map_index in order:
            ss.ingest(map_index, map_outputs[map_index])
        return ss.finalize_all(), ss.stats


# One strategy shared by all the parity properties: pairs with lots of key
# collisions (so value-order stability is actually exercised), a map-task
# count, a partition count, and a seed for the arrival permutation.
_pairs = st.lists(st.tuples(st.integers(0, 15), st.integers(0, 999)), max_size=80)
_shape = st.tuples(_pairs, st.integers(1, 5), st.integers(1, 4), st.randoms())


class TestStreamingParity:
    @given(shape=_shape)
    @settings(max_examples=80, deadline=None)
    def test_matches_batch_for_any_arrival_order(self, shape):
        pairs, num_maps, num_parts, rng = shape
        outputs = _split_into_map_outputs(pairs, num_maps, num_parts)
        batch, batch_stats = shuffle(outputs, num_parts)
        order = list(range(num_maps))
        rng.shuffle(order)
        streamed, stream_stats = _stream(outputs, num_parts, order)
        assert streamed == batch
        assert stream_stats.records == batch_stats.records
        assert stream_stats.bytes == batch_stats.bytes
        assert stream_stats.segments == batch_stats.segments


class TestStreamingContract:
    def test_finalize_before_complete_raises(self):
        ss = StreamingShuffle(2, 1)
        ss.ingest(0, [[(0, 1)]])
        with pytest.raises(RuntimeError, match="1 map tasks pending"):
            ss.finalize(0)

    def test_double_ingest_raises(self):
        ss = StreamingShuffle(2, 1)
        ss.ingest(0, [[(0, 1)]])
        with pytest.raises(ValueError, match="already ingested"):
            ss.ingest(0, [[(0, 2)]])

    def test_buffer_count_mismatch_raises(self):
        ss = StreamingShuffle(1, 2)
        with pytest.raises(ValueError, match="1 buffers for 2 partitions"):
            ss.ingest(0, [[(0, 1)]])

    def test_zero_map_tasks_is_immediately_complete(self):
        ss = StreamingShuffle(0, 3)
        assert ss.complete
        assert ss.finalize_all() == [[], [], []]

    def test_same_type_incomparable_keys_match_batch(self):
        # The _sort_token repr fallback must agree between the batch sort
        # and the streaming heap-merge.
        outputs = [
            [[((1, "a"), "x"), (("a", 1), "y")]],
            [[((1, "a"), "z"), ((0, "b"), "w")]],
        ]
        batch, _ = shuffle(outputs, 1)
        streamed, _ = _stream(outputs, 1, [1, 0])
        assert streamed == batch
