"""Batch restart target: load the input, run MR-Angle jobs forever.

Usage: ``python -m perfbench.batch_child INPUT.npy``

Prints one line per finished job, a digest of its global skyline ids, so
the benchmark can time a kill-and-restart to the first correct answer.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np


def digest(ids: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(ids, dtype=np.int64).tobytes()).hexdigest()


def main(path: str) -> int:
    from repro.core.mr_skyline import run_mr_skyline

    points = np.load(path)
    while True:
        result = run_mr_skyline(points, method="angle", kernel="block")
        sys.stdout.write(digest(result.global_indices) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
