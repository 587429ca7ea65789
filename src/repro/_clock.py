"""The default clock of the runner's backoff and the serving SLO windows.

Kept in its own module so a server that never runs a MapReduce job does
not import the engine to read the time.
"""

from __future__ import annotations

import time

__all__ = ["MonotonicClock"]


class MonotonicClock:
    """Real monotonic time, real sleeps.

    Tests substitute a fake with the same two-method surface to assert
    backoff spacing without waiting for it.
    """

    __slots__ = ()

    def monotonic(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)
