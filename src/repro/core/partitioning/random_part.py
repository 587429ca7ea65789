"""Random partitioning — a load-balance-only baseline (not in the paper).

Random assignment balances partition sizes perfectly in expectation but
ignores geometry entirely, so every partition's local skyline is a fresh
skyline of a random sample — typically much larger than a sector's, which
makes the Reduce merge expensive.  Used in the ablation benchmarks to show
that MR-Angle's advantage is geometric, not just balance.

Assignment is *content-hashed* (BLAKE2 over the point's bytes plus the
seed), so it is deterministic, independent of point order, and stable for
points unseen at fit time — properties a plain RNG draw would not have.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.core.partitioning.base import SpacePartitioner

__all__ = ["RandomPartitioner"]


class RandomPartitioner(SpacePartitioner):
    """Deterministic content-hash partitioning."""

    scheme = "random"

    def __init__(self, num_partitions: int, *, seed: int = 0) -> None:
        super().__init__(num_partitions)
        self.seed = int(seed)

    def _fit(self, points: np.ndarray) -> None:
        # Stateless by design: nothing to learn from the data.
        return None

    def _assign(self, points: np.ndarray) -> np.ndarray:
        import hashlib

        salt = self.seed.to_bytes(8, "little", signed=True)
        ids = np.empty(points.shape[0], dtype=np.int64)
        for i, row in enumerate(np.ascontiguousarray(points)):
            digest = hashlib.blake2b(
                row.tobytes(), key=salt, digest_size=8
            ).digest()
            ids[i] = int.from_bytes(digest, "little") % self.num_partitions
        return ids

    def _detail(self) -> Mapping[str, object]:
        return {"seed": self.seed}
