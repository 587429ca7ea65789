"""Record serialization for the shuffle's spills and size accounting.

:class:`PickleCodec` (pickle protocol 5) encodes one shuffled value —
arbitrary Python objects, NumPy arrays and point blocks included — and
wraps any pickling failure in :class:`SerializationError`.

Framed streams (:func:`write_frames` / :func:`read_frames`) store a sequence
of encoded records as ``<uint32 length><payload>`` so spill files can be
re-read without a manifest.  :func:`estimate_nbytes` provides the cheap size
estimate that feeds :attr:`TaskStats.bytes_out` and the shuffle cost model.
"""

from __future__ import annotations

import pickle
import struct
import sys
from typing import Any, BinaryIO, Iterable, Iterator

import numpy as np

from repro.mapreduce.errors import SerializationError

_LEN = struct.Struct("<I")
_MAX_FRAME = 1 << 31


class PickleCodec:
    """General-purpose codec backed by :mod:`pickle` protocol 5."""

    def encode(self, obj: Any) -> bytes:
        try:
            return pickle.dumps(obj, protocol=5)
        except Exception as exc:  # pragma: no cover - exotic unpicklables
            raise SerializationError(f"cannot pickle {type(obj)!r}: {exc}") from exc

    def decode(self, payload: bytes) -> Any:
        try:
            return pickle.loads(payload)
        except Exception as exc:
            raise SerializationError(f"cannot unpickle frame: {exc}") from exc


def write_frames(stream: BinaryIO, payloads: Iterable[bytes]) -> int:
    """Write length-prefixed frames; returns the number of frames written."""
    count = 0
    for payload in payloads:
        if len(payload) >= _MAX_FRAME:
            raise SerializationError(f"frame too large: {len(payload)} bytes")
        stream.write(_LEN.pack(len(payload)))
        stream.write(payload)
        count += 1
    return count


def read_frames(stream: BinaryIO) -> Iterator[bytes]:
    """Yield payloads from a framed stream until EOF.

    Raises :class:`SerializationError` on a truncated trailing frame.
    """
    while True:
        header = stream.read(_LEN.size)
        if not header:
            return
        if len(header) < _LEN.size:
            raise SerializationError("truncated frame header")
        (length,) = _LEN.unpack(header)
        payload = stream.read(length)
        if len(payload) < length:
            raise SerializationError(
                f"truncated frame payload: wanted {length}, got {len(payload)}"
            )
        yield payload


def estimate_nbytes(obj: Any) -> int:
    """Cheap serialized-size estimate used for shuffle-volume accounting.

    Exact for arrays/bytes/str; a small constant for scalars; recursive with
    per-element overhead for tuples and lists; falls back to ``sys.getsizeof``
    for anything else.  Deliberately avoids actually serializing the object.
    """
    if obj is None:
        return 1
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8", errors="replace"))
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, (int, np.integer)):
        return 8
    if isinstance(obj, (float, np.floating)):
        return 8
    if isinstance(obj, (tuple, list)):
        return 8 + sum(estimate_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return 8 + sum(
            estimate_nbytes(k) + estimate_nbytes(v) for k, v in obj.items()
        )
    return int(sys.getsizeof(obj))
