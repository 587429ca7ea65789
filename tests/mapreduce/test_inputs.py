"""Tests for input splits."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce.errors import JobConfigError
from repro.mapreduce.inputs import make_splits


class TestSequenceInputFormat:
    """``make_splits`` over an in-memory record sequence."""

    def test_even_split(self):
        records = [(i, i) for i in range(10)]
        splits = make_splits(records, 5)
        assert [len(s) for s in splits] == [2, 2, 2, 2, 2]

    def test_uneven_split_sizes_differ_by_at_most_one(self):
        records = [(i, i) for i in range(11)]
        splits = make_splits(records, 4)
        sizes = [len(s) for s in splits]
        assert sum(sizes) == 11
        assert max(sizes) - min(sizes) <= 1

    def test_more_splits_than_records(self):
        records = [(0, "a"), (1, "b")]
        splits = make_splits(records, 10)
        assert len(splits) == 2  # never emits empty splits

    def test_empty_records_single_empty_split(self):
        splits = make_splits([], 4)
        assert len(splits) == 1
        assert len(splits[0]) == 0

    def test_order_preserved(self):
        records = [(i, str(i)) for i in range(7)]
        splits = make_splits(records, 3)
        flattened = [r for s in splits for r in s]
        assert flattened == records

    def test_split_indices_sequential(self):
        splits = make_splits([(i, i) for i in range(6)], 3)
        assert [s.index for s in splits] == [0, 1, 2]

    def test_invalid_num_splits(self):
        with pytest.raises(JobConfigError):
            make_splits([], 0)

    @given(
        n=st.integers(0, 200),
        k=st.integers(1, 20),
    )
    @settings(max_examples=50)
    def test_property_partition_of_records(self, n, k):
        records = [(i, i * 2) for i in range(n)]
        splits = make_splits(records, k)
        flattened = [r for s in splits for r in s]
        assert flattened == records
        sizes = [len(s) for s in splits]
        if n:
            assert max(sizes) - min(sizes) <= 1
            assert len(splits) == min(k, n)
