"""Block-Nested-Loops (BNL) skyline — Börzsönyi, Kossmann & Stocker, ICDE'01.

The paper uses BNL for both the local-skyline stage and the global merge
("We choose the BNL algorithm at Step 2 for its simplicity").  This module
implements the faithful multi-pass algorithm:

* a *window* of incomparable points is kept in memory;
* each candidate is compared against the window — if dominated it is
  discarded, if it dominates window points those are evicted, otherwise it
  joins the window;
* when the window is full the candidate is spilled to a temp file (here: a
  list) and handled in the next pass;
* a window point can only be emitted as skyline once every candidate that
  entered the algorithm *after* it has been compared against it, which the
  classic algorithm tracks with timestamps.

With an unbounded window (the default) one pass suffices and the timestamp
machinery degenerates, but the bounded mode is exercised by tests and by the
window-size ablation benchmark.

The inner comparison is vectorised: one broadcast test of the candidate
against the whole window (see :mod:`repro.core.dominance`), which is what
makes 100 k-point runs tractable in Python.

Dominance work routes through the :mod:`repro.core.kernels` seam: under the
``block`` kernel an *unbounded-window* run takes the columnar sort-first
sweep (identical result — the skyline is unique — with passes pinned at 1,
which is also what an unbounded window guarantees here); the bounded-window
ablation and the ``scalar`` kernel keep the classic candidate-at-a-time
loop below, which is itself the scalar reference semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.dominance import DominanceCounter, validate_points
from repro.core.kernels import DominanceKernel, get_kernel

__all__ = ["BNLResult", "bnl_skyline", "bnl_merge"]


@dataclass(slots=True)
class BNLResult:
    """Outcome of one BNL run."""

    indices: np.ndarray  # skyline positions in the input, ascending
    passes: int
    dominance_tests: int

    def points(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=np.float64)[self.indices]


def bnl_skyline(
    points: np.ndarray,
    *,
    window_size: int | None = None,
    counter: DominanceCounter | None = None,
    stage: str = "bnl",
    kernel: str | DominanceKernel | None = None,
) -> BNLResult:
    """Compute the skyline of ``points`` with BNL.

    Parameters
    ----------
    points:
        ``(n, d)`` array, minimisation in every dimension.
    window_size:
        Maximum window occupancy; ``None`` means unbounded (single pass).
    counter:
        Optional shared :class:`DominanceCounter` to accumulate test counts
        across stages (the paper's "redundant computation" metric).
    kernel:
        Dominance backend name or instance; ``None`` resolves the process
        default (``--kernel`` / ``$REPRO_KERNEL``, else ``scalar``).  The
        ``block`` kernel vectorises the unbounded-window case; results are
        identical either way.

    Returns
    -------
    :class:`BNLResult` with ascending input indices of the skyline.
    """
    knl = get_kernel(kernel)
    if window_size is None and knl.batch:
        # Columnar fast path: sort-first sweep over whole chunks.  The
        # skyline is unique, so indices match the loop below exactly; an
        # unbounded window means one pass in both worlds.  The kernel
        # validates the points, once; a non-empty input always has a
        # non-empty skyline, so the indices tell whether a pass ran.
        local = DominanceCounter()
        indices = knl.skyline(points, counter=local, stage=stage)
        if counter is not None:
            counter.merge(local)
        return BNLResult(
            indices=indices, passes=1 if indices.size else 0,
            dominance_tests=local.tests,
        )
    pts = validate_points(points)
    n = pts.shape[0]
    if window_size is not None and window_size < 1:
        raise ValueError(f"window_size must be >= 1, got {window_size}")

    tests = 0
    passes = 0
    confirmed: list[int] = []

    # Candidates for the current pass, as (input_index, entry_timestamp).
    candidates = list(range(n))
    timestamps = np.zeros(n, dtype=np.int64)  # when each point entered a pass
    clock = 0

    d = pts.shape[1]

    while candidates:
        passes += 1
        window: list[int] = []  # input indices currently in the window
        # Capacity-doubling buffer: rows [0:len(window)] mirror `window`.
        capacity = 64 if window_size is None else min(window_size, 64)
        window_buf = np.empty((capacity, d))
        overflow: list[int] = []
        window_entry: dict[int, int] = {}  # index -> timestamp at window entry

        for idx in candidates:
            clock += 1
            timestamps[idx] = clock
            w = len(window)
            if w:
                view = window_buf[:w]
                tests += w
                # One fused comparison pass gives both dominance directions:
                # window row dominates p   ⟺ le_all & lt_any
                # p dominates window row   ⟺ ~lt_any & ~le_all
                le = view <= pts[idx]
                le_all = le.all(axis=1)
                lt_any = (view < pts[idx]).any(axis=1)
                if bool(np.any(le_all & lt_any)):
                    continue
                evict = ~lt_any & ~le_all
                if evict.any():
                    keep = ~evict
                    window = [wi for wi, k in zip(window, keep) if k]
                    w = len(window)
                    window_buf[:w] = view[keep]
            if window_size is None or w < window_size:
                if w == window_buf.shape[0]:
                    grown = np.empty((window_buf.shape[0] * 2, d))
                    grown[:w] = window_buf[:w]
                    window_buf = grown
                window_buf[w] = pts[idx]
                window.append(idx)
                window_entry[idx] = clock
            else:
                overflow.append(idx)

        if not overflow:
            # Every remaining window point survived all comparisons.
            confirmed.extend(window)
            break

        # A window point is confirmed skyline iff it entered the window
        # before the first overflowed candidate was written (it has then been
        # compared with every point of the data set); otherwise it must be
        # replayed against the overflow in the next pass.
        first_spill_clock = timestamps[overflow[0]]
        next_candidates: list[int] = []
        for widx in window:
            if window_entry[widx] < first_spill_clock:
                confirmed.append(widx)
            else:
                next_candidates.append(widx)
        # Confirmed points still prune the next pass's candidates implicitly:
        # anything they dominate was already discarded when compared against
        # the window. Overflowed candidates were never compared to each
        # other, so they all go around again, after the carried window points.
        candidates = next_candidates + overflow

    if counter is not None:
        counter.add(tests, stage)
    indices = np.array(sorted(confirmed), dtype=np.intp)
    return BNLResult(indices=indices, passes=passes, dominance_tests=tests)


def bnl_merge(
    local_skylines: list[np.ndarray],
    *,
    counter: DominanceCounter | None = None,
    kernel: str | DominanceKernel | None = None,
) -> BNLResult:
    """Merge local skylines into a global skyline (the Reduce-stage BNL).

    ``local_skylines`` is a list of ``(k_i, d)`` arrays; the result's indices
    refer to their vertical concatenation.
    """
    if not local_skylines:
        return BNLResult(
            indices=np.empty(0, dtype=np.intp), passes=0, dominance_tests=0
        )
    stacked = np.vstack([validate_points(s) for s in local_skylines])
    return bnl_skyline(stacked, counter=counter, stage="merge", kernel=kernel)
