"""Partitioners: key → reduce-partition routing.

The partitioner decides which reduce task receives each intermediate key.
For the skyline jobs, keys are already partition ids produced by the data-
space partitioning scheme (dimensional / grid / angular), so
:class:`KeyFieldPartitioner` with the identity field is the common choice:
partition ``i`` of the data space lands on reducer ``i % R``.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Hashable

from repro.mapreduce.errors import JobConfigError


class Partitioner:
    """Maps a key to an integer in ``[0, num_partitions)``."""

    def partition(self, key: Hashable, num_partitions: int) -> int:
        raise NotImplementedError

    def __call__(self, key: Hashable, num_partitions: int) -> int:
        return self.partition(key, num_partitions)


class HashPartitioner(Partitioner):
    """Stable hash partitioning (Hadoop's default).

    Uses BLAKE2 over ``repr(key)`` rather than Python's ``hash`` so results
    are stable across interpreter runs and worker processes (``PYTHONHASHSEED``
    randomisation would otherwise make shuffles non-deterministic).
    """

    def partition(self, key: Hashable, num_partitions: int) -> int:
        digest = hashlib.blake2b(repr(key).encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "little") % num_partitions


class KeyFieldPartitioner(Partitioner):
    """Routes integer-convertible keys by value: ``int(field(key)) % R``.

    With the default identity field this sends data-space partition ``i`` to
    reducer ``i % R`` — the natural routing for the skyline jobs, where the
    map stage already assigned a partition id.
    """

    def __init__(self, field: Callable[[Hashable], Any] | None = None):
        # None means identity; kept as None (not a lambda) so the
        # partitioner stays picklable for the multiprocessing runner.
        self._field = field

    def partition(self, key: Hashable, num_partitions: int) -> int:
        value = key if self._field is None else self._field(key)
        try:
            return int(value) % num_partitions
        except (TypeError, ValueError) as exc:
            raise JobConfigError(
                f"KeyFieldPartitioner needs an integer-convertible key field, "
                f"got {value!r}"
            ) from exc


class SingleReducerPartitioner(Partitioner):
    """Sends every key to partition 0 — the global-merge stage of Algorithm 1."""

    def partition(self, key: Hashable, num_partitions: int) -> int:
        return 0
