"""Tests for repro.mapreduce.serialization."""

import numpy as np

from repro.mapreduce.serialization import estimate_nbytes


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
