"""Tests for repro.mapreduce.serialization."""

import io

import numpy as np
import pytest

from repro.mapreduce.errors import SerializationError
from repro.mapreduce.serialization import (
    PickleCodec,
    estimate_nbytes,
    read_frames,
    write_frames,
)


class TestPickleCodec:
    @pytest.mark.parametrize(
        "obj",
        [None, 42, 3.14, "text", b"bytes", [1, 2], {"k": (1, 2)}, (1, "a")],
    )
    def test_round_trip(self, obj):
        codec = PickleCodec()
        assert codec.decode(codec.encode(obj)) == obj

    def test_numpy_round_trip(self):
        codec = PickleCodec()
        arr = np.arange(12, dtype=np.float64).reshape(3, 4)
        out = codec.decode(codec.encode(arr))
        assert np.array_equal(out, arr)

    def test_decode_garbage_raises(self):
        with pytest.raises(SerializationError):
            PickleCodec().decode(b"\x00not-a-pickle")


class TestFrames:
    def test_round_trip(self):
        buf = io.BytesIO()
        payloads = [b"a", b"", b"longer payload"]
        assert write_frames(buf, payloads) == 3
        buf.seek(0)
        assert list(read_frames(buf)) == payloads

    def test_empty_stream(self):
        assert list(read_frames(io.BytesIO())) == []

    def test_truncated_header_raises(self):
        with pytest.raises(SerializationError):
            list(read_frames(io.BytesIO(b"\x01\x00")))

    def test_truncated_payload_raises(self):
        buf = io.BytesIO()
        write_frames(buf, [b"abcdef"])
        data = buf.getvalue()[:-2]
        with pytest.raises(SerializationError):
            list(read_frames(io.BytesIO(data)))


class TestEstimateNbytes:
    def test_array_exact(self):
        arr = np.zeros((10, 3))
        assert estimate_nbytes(arr) == arr.nbytes

    def test_bytes_exact(self):
        assert estimate_nbytes(b"12345") == 5

    def test_str_utf8(self):
        assert estimate_nbytes("abc") == 3
        assert estimate_nbytes("é") == 2

    def test_scalars_small(self):
        assert estimate_nbytes(None) == 1
        assert estimate_nbytes(True) == 1
        assert estimate_nbytes(7) == 8
        assert estimate_nbytes(7.5) == 8

    def test_containers_recursive(self):
        flat = estimate_nbytes(b"xxxx")
        nested = estimate_nbytes([b"xxxx", b"xxxx"])
        assert nested >= 2 * flat

    def test_dict(self):
        assert estimate_nbytes({"a": 1}) >= 9

    def test_numpy_scalar(self):
        assert estimate_nbytes(np.float64(1.0)) == 8
        assert estimate_nbytes(np.int64(1)) == 8
