"""Size accounting for the shuffle.

:func:`estimate_nbytes` provides the cheap serialized-size estimate that
feeds :attr:`TaskStats.bytes_out`, the shuffle's byte tally and the
shuffle cost model.
"""

from __future__ import annotations

import sys
from typing import Any

import numpy as np


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
