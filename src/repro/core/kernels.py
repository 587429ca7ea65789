"""Pluggable dominance kernels — *how* dominance work executes.

The algorithms in :mod:`repro.core` all reduce to the same handful of
dominance operations: "does anything in this window dominate the point",
"which window rows does the point evict", "which of these rows survive a
filter set", "the skyline of this batch".  This module isolates those
operations behind the :class:`DominanceKernel` seam — the dominance
analogue of the PR-2 executor seam — with two backends:

* :class:`ScalarKernel` (``"scalar"``) — the **reference**: point-at-a-time
  processing, one candidate against the window per step, as the paper's
  algorithms are written.  Ground truth for the parity suite, and the
  dominance-test counts of the paper-literal pipeline.
* :class:`BlockKernel` (``"block"``) — columnar batches: candidates flow
  through in chunks that grow from ``FIRST_CHUNK`` to ``BLOCK_CHUNK`` rows,
  each chunk is filtered against the accumulated skyline with two
  broadcast comparisons, and intra-chunk dominance is one pairwise matrix.
  Same results bit for bit (the skyline is unique); orders of magnitude
  fewer interpreter transitions.

The block backend's :meth:`~DominanceKernel.skyline` applies the
Ciaccia–Martinenghi *sort-first* ordering (monotone entropy score with a
full lexicographic tiebreak, the SFS invariant) before sweeping, so no
point is ever evicted and one pass always suffices.  A batch of at most
``FIRST_CHUNK`` rows is one intra-chunk pass that compares every pair
both ways, where order cannot matter, so it sweeps unsorted; the broadcast
*filter-point* stage of the same paper lives in
:mod:`repro.core.filtering` and calls :meth:`~DominanceKernel.filter_survivors`.

Selection mirrors the executor seam: every entry point takes an optional
``kernel`` argument (a name or a ready instance), ``None`` resolves through
the process default — ``set_default_kernel`` (the CLI's ``--kernel``), then
``$REPRO_KERNEL``, then ``"scalar"`` — so exporting ``REPRO_KERNEL=block``
flips every default-configured algorithm in the process without touching
call sites.  The servers (``repro serve`` / ``repro coordinator``) fall
back to ``"block"`` instead.

Every kernel op counts the pairwise dominance tests it performs into the
caller's :class:`~repro.core.dominance.DominanceCounter`, so the paper's
"redundant computation" metric stays comparable across backends.
"""

from __future__ import annotations

import os
from typing import Tuple

import numpy as np

from repro.core.dominance import (
    DominanceCounter,
    dominated_by_any,
    dominates,
    dominates_any,
    point_matrix,
    validate_points,
)

__all__ = [
    "ENV_KERNEL",
    "KERNEL_NAMES",
    "BlockKernel",
    "DominanceKernel",
    "ScalarKernel",
    "default_kernel_name",
    "get_kernel",
    "set_default_kernel",
    "sort_first_order",
]

#: Recognised kernel names, in documentation order.
KERNEL_NAMES: Tuple[str, ...] = ("scalar", "block")

#: Environment variable naming the default kernel.
ENV_KERNEL = "REPRO_KERNEL"

#: Process-global override installed by the CLI's ``--kernel`` (mirrors the
#: fault-plan default: layers below the CLI build their own algorithm calls,
#: so the flag has to reach them the way ``$REPRO_KERNEL`` would).
_DEFAULT_KERNEL: str | None = None

#: Largest candidate chunk of a block-kernel sweep.  Bounds the intra-chunk
#: pairwise matrix at ``(1024, 1024)`` bools and keeps every broadcast well
#: inside cache-friendly territory.
BLOCK_CHUNK = 1024

#: First candidate chunk of a block-kernel sweep; each later chunk doubles
#: up to ``BLOCK_CHUNK``.  The sweep starts with an empty accumulated
#: skyline, so a first chunk goes wholly through the m×m intra-chunk
#: matrix; kept small, it only seeds the skyline prefix the prescreen
#: then uses to kill most of every later chunk cheaply.
FIRST_CHUNK = 64

#: Candidate-chunk rows per ``filter_survivors`` step.  Its window is the
#: small filter set, never the m×m matrix, so larger steps only cut
#: per-step overhead.
FILTER_CHUNK = 4096

#: Window-side chunk rows when filtering a candidate chunk against a large
#: accumulated skyline (memory stays O(BLOCK_CHUNK · WINDOW_CHUNK · d)).
WINDOW_CHUNK = 1024

#: Rows of the accumulated skyline tried before any full-width window pass.
#: Sort-first order front-loads the strongest dominators, so this short
#: prefix kills most of a candidate chunk at a fraction of the broadcast.
_PRESCREEN = 32


def default_kernel_name(fallback: str = "scalar") -> str:
    """The kernel used when none is requested.

    Resolution order: :func:`set_default_kernel` (CLI ``--kernel``), then
    ``$REPRO_KERNEL``, then ``fallback`` — ``"scalar"``, the reference
    path, so the experiments run the paper-literal pipeline unless a run
    opts in to the block backend.  ``repro serve`` passes ``"block"``:
    served answers are identical, only faster.
    """
    if _DEFAULT_KERNEL is not None:
        return _DEFAULT_KERNEL
    return os.environ.get(ENV_KERNEL, "").strip().lower() or fallback


def set_default_kernel(name: str | None) -> str | None:
    """Install (or with ``None`` clear) the process-default kernel name.

    Returns the previous override so callers can restore it; the CLI wraps
    experiment runs in exactly that save/restore pair.
    """
    global _DEFAULT_KERNEL
    if name is not None:
        name = name.strip().lower()
        if name not in KERNEL_NAMES:
            raise ValueError(
                f"unknown kernel {name!r}; expected one of {', '.join(KERNEL_NAMES)}"
            )
    previous = _DEFAULT_KERNEL
    _DEFAULT_KERNEL = name
    return previous


def sort_first_order(rows: np.ndarray) -> np.ndarray:
    """The Ciaccia–Martinenghi sort-first permutation of ``rows``.

    Monotone entropy score (``Σ ln(1 + v_i - min_i)``) with a full
    lexicographic tiebreak.  The tiebreak is a correctness requirement, not
    cosmetics: floating-point rounding can collapse the scores of ``a`` and
    ``b`` even when ``a`` dominates ``b``, and dominance implies
    lexicographic order, so ties resolved lexicographically preserve the
    SFS invariant that no later point dominates an earlier one.

    The permutation is exactly ``np.lexsort`` over the score, then every
    coordinate, then the row index, but only the runs of equal scores pay
    for the coordinate keys: a stable argsort orders the scores, and one
    stable lexsort keyed by (run, coordinates) reorders the tied positions
    within their runs.
    """
    return _sort_first_order(validate_points(rows))


def _sort_first_order(pts: np.ndarray) -> np.ndarray:
    """:func:`sort_first_order` of already validated points."""
    shifted = pts - pts.min(axis=0, keepdims=True)
    scores = np.log1p(shifted).sum(axis=1)
    order = np.argsort(scores, kind="stable")
    ranked = scores[order]
    tied = ranked[1:] == ranked[:-1]
    if ranked.size and np.isnan(ranked[-1]):
        # NaN scores (inf - inf, from infinite coordinates) sort last and
        # tie with each other, as they do under lexsort.
        tied |= np.isnan(ranked[1:]) & np.isnan(ranked[:-1])
    if not tied.any():
        return order
    # Positions inside a run of equal scores, and the run each belongs to.
    in_run = np.zeros(ranked.size, dtype=bool)
    in_run[1:] = tied
    in_run[:-1] |= tied
    pos = np.flatnonzero(in_run)
    run = np.cumsum(~np.concatenate(([False], tied)))[pos]
    tied_rows = pts[order[pos]]
    keys = tuple(tied_rows[:, j] for j in range(pts.shape[1] - 1, -1, -1))
    order[pos] = order[pos][np.lexsort(keys + (run,))]
    return order


class DominanceKernel:
    """One backend for the dominance operations of every hot path.

    Subclasses fix *how* the comparisons run (point-at-a-time vs columnar
    batches); results are identical by construction — the skyline of a
    point set is unique, and every op here is a pure function of its
    inputs.  ``batch`` advertises whether the backend wants whole blocks
    (algorithms use it to pick their vectorised fast paths).
    """

    #: Stable backend name used by ``--kernel``, params, and reports.
    name: str = "abstract"
    #: True when ``skyline``/``sweep_sorted`` are vectorised batch ops.
    batch: bool = False

    # -- single-point ops (shared: already one broadcast per call) -------------

    def dominates(self, a: np.ndarray, b: np.ndarray) -> bool:
        """Ground-truth pair predicate (delegates to the scalar reference)."""
        # The one sanctioned direct use of the scalar primitives: the
        # kernels ARE the seam the lint rule points everything else at.
        return dominates(a, b)  # repro: allow[kernel-seam]

    def any_dominates(
        self,
        window: np.ndarray,
        point: np.ndarray,
        *,
        counter: DominanceCounter | None = None,
        stage: str = "kernel",
    ) -> bool:
        """True iff any ``window`` row dominates ``point``."""
        if counter is not None:
            counter.add(int(window.shape[0]), stage)
        return dominates_any(window, point)  # repro: allow[kernel-seam]

    def dominated_in(
        self,
        window: np.ndarray,
        point: np.ndarray,
        *,
        counter: DominanceCounter | None = None,
        stage: str = "kernel",
    ) -> np.ndarray:
        """Boolean mask over ``window`` rows dominated *by* ``point``."""
        if counter is not None:
            counter.add(int(window.shape[0]), stage)
        return dominated_by_any(window, point)  # repro: allow[kernel-seam]

    # -- counting ops (shared: exact integer results either way) ---------------

    def dominator_counts(
        self,
        rows: np.ndarray,
        *,
        block: int = 2048,
        counter: DominanceCounter | None = None,
        stage: str = "skyband",
    ) -> np.ndarray:
        """Per row: how many other rows dominate it (0 ⟺ skyline member)."""
        pts = validate_points(rows)
        n = pts.shape[0]
        counts = np.zeros(n, dtype=np.int64)
        for start in range(0, n, block):
            chunk = pts[start : start + block]
            le = (pts[:, None, :] <= chunk[None, :, :]).all(axis=2)
            lt = (pts[:, None, :] < chunk[None, :, :]).any(axis=2)
            counts[start : start + chunk.shape[0]] = (le & lt).sum(axis=0)
            if counter is not None:
                counter.add(n * chunk.shape[0], stage)
        return counts

    def dominated_counts(
        self,
        rows: np.ndarray,
        *,
        block: int = 2048,
        counter: DominanceCounter | None = None,
        stage: str = "top-k-dominating",
    ) -> np.ndarray:
        """Per row: how many other rows it dominates (the ranking flavour)."""
        pts = validate_points(rows)
        n = pts.shape[0]
        counts = np.zeros(n, dtype=np.int64)
        for start in range(0, n, block):
            chunk = pts[start : start + block]
            le = (chunk[:, None, :] <= pts[None, :, :]).all(axis=2)
            lt = (chunk[:, None, :] < pts[None, :, :]).any(axis=2)
            counts[start : start + chunk.shape[0]] = (le & lt).sum(axis=1)
            if counter is not None:
                counter.add(n * chunk.shape[0], stage)
        return counts

    # -- batch ops (backend-specific) ------------------------------------------

    def filter_survivors(
        self,
        filters: np.ndarray,
        rows: np.ndarray,
        *,
        k: int = 1,
        counter: DominanceCounter | None = None,
        stage: str = "prune",
    ) -> np.ndarray:
        """Mask over ``rows``: True where fewer than ``k`` ``filters`` rows
        dominate it (``k = 1``, the default: no filter row does).

        The broadcast-filter primitive of the Ciaccia–Martinenghi pruning
        pipeline: ``filters`` is the small filter set shipped to every
        partition, ``rows`` an incoming block.  ``k > 1`` is the k-skyband
        rule: a row with ``k`` filter dominators is outside the band.
        """
        raise NotImplementedError

    def sweep_sorted(
        self,
        rows: np.ndarray,
        *,
        k: int = 1,
        counter: DominanceCounter | None = None,
        stage: str = "sweep",
    ) -> np.ndarray:
        """k-skyband mask of ``rows`` **already in a monotone-score order**.

        ``k = 1`` (the default) is the skyline mask; larger ``k`` keeps
        every row dominated by fewer than ``k`` others.  Each row is
        counted only against the rows kept before it: every dominator
        precedes the row it dominates, and a row outside the band always
        has ``k`` dominators inside it (the earliest out-of-band dominator
        of a row has its own ``k`` in-band dominators, which dominate the
        row too), so the kept prefix always holds enough of them.

        Precondition (the SFS invariant): no row dominates an earlier row.
        Violating it produces wrong masks — callers sort via
        :func:`sort_first_order` or an equivalent monotone score first.
        """
        raise NotImplementedError

    def skyline(
        self,
        rows: np.ndarray,
        *,
        counter: DominanceCounter | None = None,
        stage: str = "skyline",
    ) -> np.ndarray:
        """Ascending row indices of the skyline of ``rows`` (any order)."""
        raise NotImplementedError


class ScalarKernel(DominanceKernel):
    """Point-at-a-time reference backend — the pre-seam semantics.

    Each candidate is one Python-level step: one broadcast comparison
    against whatever window/filter it faces, counting ``len(window)``
    tests, exactly like the classic BNL/SFS inner loops these ops were
    extracted from.  Kept as ground truth for the differential parity
    suite; never the fast path.
    """

    name = "scalar"
    batch = False

    def filter_survivors(
        self,
        filters: np.ndarray,
        rows: np.ndarray,
        *,
        k: int = 1,
        counter: DominanceCounter | None = None,
        stage: str = "prune",
    ) -> np.ndarray:
        _check_k(k)
        flt = validate_points(filters, name="filters")
        pts = validate_points(rows)
        alive = np.ones(pts.shape[0], dtype=bool)
        if flt.shape[0] == 0:
            return alive
        for i in range(pts.shape[0]):
            # One candidate against the whole filter set per step — the
            # reference shape of the op.
            if k == 1:
                alive[i] = not dominates_any(flt, pts[i])  # repro: allow[kernel-seam]
            else:
                le = (flt <= pts[i]).all(axis=1)
                alive[i] = (le & (flt < pts[i]).any(axis=1)).sum() < k
        if counter is not None:
            counter.add(int(flt.shape[0]) * int(pts.shape[0]), stage)
        return alive

    def sweep_sorted(
        self,
        rows: np.ndarray,
        *,
        k: int = 1,
        counter: DominanceCounter | None = None,
        stage: str = "sweep",
    ) -> np.ndarray:
        _check_k(k)
        pts = validate_points(rows)
        n, d = pts.shape
        keep = np.zeros(n, dtype=bool)
        window: list[int] = []
        window_buf = np.empty((64, d))
        tests = 0
        for idx in range(n):
            w = len(window)
            if w:
                tests += w
                view, point = window_buf[:w], pts[idx]
                if k == 1:
                    if dominates_any(view, point):  # repro: allow[kernel-seam]
                        continue
                else:
                    le = (view <= point).all(axis=1)
                    if (le & (view < point).any(axis=1)).sum() >= k:
                        continue
            if w == window_buf.shape[0]:
                grown = np.empty((window_buf.shape[0] * 2, d))
                grown[:w] = window_buf[:w]
                window_buf = grown
            window_buf[w] = pts[idx]
            window.append(idx)
            keep[idx] = True
        if counter is not None:
            counter.add(tests, stage)
        return keep

    def skyline(
        self,
        rows: np.ndarray,
        *,
        counter: DominanceCounter | None = None,
        stage: str = "skyline",
    ) -> np.ndarray:
        # The classic unbounded-window BNL loop, one candidate per step —
        # identical tests and identical result to bnl_skyline(points).
        pts = validate_points(rows)
        n, d = pts.shape
        window: list[int] = []
        window_buf = np.empty((64, d))
        tests = 0
        for idx in range(n):
            w = len(window)
            if w:
                view = window_buf[:w]
                tests += w
                le = view <= pts[idx]
                le_all = le.all(axis=1)
                lt_any = (view < pts[idx]).any(axis=1)
                if bool(np.any(le_all & lt_any)):
                    continue
                evict = ~lt_any & ~le_all
                if evict.any():
                    keep_mask = ~evict
                    window = [wi for wi, k in zip(window, keep_mask) if k]
                    w = len(window)
                    window_buf[:w] = view[keep_mask]
            if w == window_buf.shape[0]:
                grown = np.empty((window_buf.shape[0] * 2, d))
                grown[:w] = window_buf[:w]
                window_buf = grown
            window_buf[w] = pts[idx]
            window.append(idx)
        if counter is not None:
            counter.add(tests, stage)
        return np.array(sorted(window), dtype=np.intp)


class BlockKernel(DominanceKernel):
    """Columnar batch backend — whole chunks per step.

    A sweep takes candidates in chunks of ``FIRST_CHUNK`` rows, doubling up
    to ``BLOCK_CHUNK`` (see :func:`_sweep_chunks`): each chunk is filtered
    against the accumulated skyline with two chunked broadcast
    comparisons, then intra-chunk dominance resolves in one pairwise
    matrix.  With the sort-first precondition nothing is ever evicted, so
    the accumulated skyline only grows — append-only, no rescans.  A
    ``k > 1`` sweep accumulates the k-skyband the same way, counting
    dominators per candidate instead of testing for any.
    ``filter_survivors`` steps over ``FILTER_CHUNK`` rows at a time.

    Both ops transpose their input once and work column-major, the
    accumulated skyline included, so every per-dimension comparison reads
    contiguous memory (see :func:`_le_block`).
    """

    name = "block"
    batch = True

    def filter_survivors(
        self,
        filters: np.ndarray,
        rows: np.ndarray,
        *,
        k: int = 1,
        counter: DominanceCounter | None = None,
        stage: str = "prune",
    ) -> np.ndarray:
        _check_k(k)
        flt = validate_points(filters, name="filters")
        pts = validate_points(rows)
        n = pts.shape[0]
        alive = np.ones(n, dtype=bool)
        if flt.shape[0] == 0 or n == 0:
            return alive
        fcols, pcols = _columns(flt), _columns(pts)
        fsum, psum = _column_sums(fcols), _column_sums(pcols)
        # The filter set arrives ranked strongest-first (the pruning-score
        # order), so an 8-filter prescreen pass kills most rows before the
        # full-width filter broadcast sees the survivors.
        head = min(8, flt.shape[0])
        for start in range(0, n, FILTER_CHUNK):
            stop = min(start + FILTER_CHUNK, n)
            chunk = pcols[:, start:stop]
            csum = psum[start:stop]
            if k > 1:
                # A count needs every filter: no prescreen shortcut.
                alive[start:stop] = _count_dominators_block(fcols, chunk, fsum, csum) < k
                continue
            live = ~_any_dominates_block(
                fcols[:, :head], chunk, fsum[:head], csum
            )
            if head < flt.shape[0] and live.any():
                idx = np.flatnonzero(live)
                live[idx] = ~_any_dominates_block(
                    fcols[:, head:], chunk[:, idx], fsum[head:], csum[idx]
                )
            alive[start:stop] = live
        if counter is not None:
            counter.add(int(flt.shape[0]) * n, stage)
        return alive

    def sweep_sorted(
        self,
        rows: np.ndarray,
        *,
        k: int = 1,
        counter: DominanceCounter | None = None,
        stage: str = "sweep",
    ) -> np.ndarray:
        _check_k(k)
        pts = validate_points(rows)
        n, d = pts.shape
        keep = np.zeros(n, dtype=bool)
        if n == 0:
            return keep
        cols = _columns(pts)
        sums = _column_sums(cols)
        # The accumulated skyline, column-major like the candidates;
        # allocated when a chunk first hands survivors on to a later one.
        sky = sky_sums = None
        sky_len = 0
        tests = 0
        for start, stop in _sweep_chunks(n):
            survivors = np.arange(stop - start)
            surv = cols[:, start:stop]
            surv_sums = sums[start:stop]
            # k > 1: dominators found so far per survivor; a survivor dies
            # at k.  k = 1 stays on the cheaper any-dominance test.
            found = np.zeros(stop - start, dtype=np.int64) if k > 1 else None
            # Established skyline first: transitivity makes the intra-chunk
            # resolution below exact over survivors only (a chunk row
            # dominated by a dead chunk row is dominated by whatever killed
            # the dead row — a skyline point — so it is already dead here).
            # Candidates compact out of the working set as soon as they die:
            # the sort-first order puts the strongest dominators at the
            # front of the accumulated skyline, so the first window chunk
            # kills most of a chunk and later broadcasts shrink to almost
            # nothing — the difference between O(n·|sky|) elementwise work
            # and what actually runs.
            # The first window pass runs over a short prefix of the
            # accumulated skyline: sort-first order concentrates the
            # strongest dominators there, so a cheap prescreen pass kills
            # the bulk of the chunk before any full-width broadcast runs.
            wstart = 0
            while wstart < sky_len:
                if survivors.size == 0:
                    break
                width = _PRESCREEN if wstart == 0 else WINDOW_CHUNK
                wstop = min(wstart + width, sky_len)
                args = (
                    sky[:, wstart:wstop], surv, sky_sums[wstart:wstop], surv_sums
                )
                if k == 1:
                    dead = _any_dominates_block(*args)
                else:
                    found += _count_dominators_block(*args)
                    dead = found >= k
                tests += (wstop - wstart) * survivors.size
                if dead.any():
                    alive_mask = ~dead
                    survivors = survivors[alive_mask]
                    surv = surv[:, alive_mask]
                    surv_sums = surv_sums[alive_mask]
                    if k > 1:
                        found = found[alive_mask]
                wstart = wstop
            m = survivors.size
            if m > 1:
                # Pairwise over survivors, both ways: duplicates make the
                # full pass the safe shape, and it needs no row order, so
                # a one-chunk sweep needs no sort-first permutation.
                # Survivors that die here still count: each is a real
                # dominator, and the band's own members below k never
                # reach k.
                args = (surv, surv, surv_sums, surv_sums)
                if k == 1:
                    intra_alive = ~_any_dominates_block(*args)
                else:
                    intra_alive = found + _count_dominators_block(*args) < k
                tests += m * m
                survivors = survivors[intra_alive]
                m = survivors.size
            if m == 0:
                continue
            kept = start + survivors
            keep[kept] = True
            if stop == n:
                break
            # Later chunks sweep against these survivors.
            if sky is None:
                sky = np.empty((d, min(n, 1024)))
                sky_sums = np.empty(sky.shape[1])
            if sky_len + m > sky.shape[1]:
                grown = np.empty((d, max(sky.shape[1] * 2, sky_len + m)))
                grown[:, :sky_len] = sky[:, :sky_len]
                sky = grown
                grown_sums = np.empty(sky.shape[1])
                grown_sums[:sky_len] = sky_sums[:sky_len]
                sky_sums = grown_sums
            sky[:, sky_len : sky_len + m] = cols[:, kept]
            sky_sums[sky_len : sky_len + m] = sums[kept]
            sky_len += m
        if counter is not None:
            counter.add(tests, stage)
        return keep

    def skyline(
        self,
        rows: np.ndarray,
        *,
        counter: DominanceCounter | None = None,
        stage: str = "skyline",
    ) -> np.ndarray:
        # Every non-empty input reaches sweep_sorted, which scans it for
        # NaN: one scan per matrix, so only its shape is checked here.
        pts = point_matrix(rows)
        n = pts.shape[0]
        if n == 0:
            return np.empty(0, dtype=np.intp)
        if n <= FIRST_CHUNK:
            # One chunk: the sweep is a single intra-chunk pass over every
            # pair, both ways, so the mask and the n² tests do not depend
            # on the row order and the sort-first permutation buys nothing.
            return self.sweep_sorted(pts, counter=counter, stage=stage).nonzero()[0]
        order = _sort_first_order(pts)
        mask = self.sweep_sorted(pts[order], counter=counter, stage=stage)
        return np.sort(order[mask]).astype(np.intp)


def _sweep_chunks(n: int) -> list[tuple[int, int]]:
    """``(start, stop)`` candidate chunks of a block sweep over ``n`` rows.

    ``FIRST_CHUNK`` rows first, each later chunk twice the last, capped at
    ``BLOCK_CHUNK``; the final chunk is cut short at ``n``.
    """
    bounds: list[tuple[int, int]] = []
    start, size = 0, FIRST_CHUNK
    while start < n:
        stop = min(start + size, n)
        bounds.append((start, stop))
        start, size = stop, min(size * 2, BLOCK_CHUNK)
    return bounds


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def _columns(rows: np.ndarray) -> np.ndarray:
    """``(d, n)`` C-contiguous transpose of an ``(n, d)`` row matrix.

    The block helpers below take their operands column-major, so every
    per-dimension comparison reads one contiguous row; a Fortran-ordered
    input is already laid out that way and costs no copy.
    """
    return np.ascontiguousarray(rows.T)


def _column_sums(cols: np.ndarray) -> np.ndarray:
    """Per point, the sum of its coordinates, added dimension by dimension.

    The strictness test of :func:`_any_dominates_block` only needs both
    sides of every comparison summed in one fixed order (see there), and
    sequential adds of contiguous rows beat a strided ``sum(axis=1)``.
    """
    sums = cols[0].copy()
    for row in cols[1:]:
        sums += row
    return sums


def _le_block(window: np.ndarray, chunk: np.ndarray) -> np.ndarray | None:
    """``(w, c)`` mask: ``window[:, i] ≤ chunk[:, j]`` on every dimension.

    Both operands are column-major, ``(d, w)`` and ``(d, c)``.  The mask
    accumulates dimension by dimension on 2-D ``(w, c)`` slices of two
    contiguous rows — the same elementwise work as the obvious
    ``(w, c, d)`` broadcast, but the temporaries fit in cache instead of
    blowing it.  ``None`` when no pair survives the first three
    dimensions (the common case against a strong window).
    """
    le = window[0][:, None] <= chunk[0]
    for k in range(1, window.shape[0]):
        le &= window[k][:, None] <= chunk[k]
        if k == 2 and not le.any():
            return None
    return le


def _differs(window: np.ndarray, chunk: np.ndarray, ties: np.ndarray):
    """The ``ties`` pairs ``(i, j)`` whose points differ, as two index arrays.

    ``ties`` is a ``(w, c)`` mask of pairs with ``window[:, i] ≤
    chunk[:, j]`` everywhere and equal sums: such a pair dominates iff the
    two points differ.  Only the tie pairs are compared, never the whole
    ``(w, c)`` product.
    """
    wi, cj = np.nonzero(ties)
    real = (window[:, wi] != chunk[:, cj]).any(axis=0)
    return wi[real], cj[real]


def _any_dominates_block(
    window: np.ndarray,
    chunk: np.ndarray,
    wsum: np.ndarray,
    csum: np.ndarray,
) -> np.ndarray:
    """Mask over ``chunk`` points dominated by at least one ``window`` point.

    Operands are column-major, ``(d, w)`` and ``(d, c)``, with their
    :func:`_column_sums`.  The ``≤ on every dimension`` part comes from
    :func:`_le_block`.  Strictness then rides on the sums: with ``w ≤ c``
    elementwise, rounding keeps every partial sum of ``w`` at or below the
    same partial sum of ``c``, so ``sum(w) < sum(c)`` proves a strict
    dimension and ``sum(w) = sum(c)`` leaves only ties — pairs that
    dominate iff the points differ, resolved exactly on just those (rare)
    pairs.

    When ``window is chunk`` (the sweep's intra-chunk pass) the diagonal
    pairs each point with itself — ``≤`` everywhere, equal sums, never a
    dominator — so it is cleared, which keeps every undominated column off
    the tie path; duplicate rows still resolve there, pair by pair.
    """
    le = _le_block(window, chunk)
    if le is None:
        return np.zeros(chunk.shape[1], dtype=bool)
    if window is chunk:
        np.fill_diagonal(le, False)
    strict = wsum[:, None] < csum
    strict &= le
    dominated = strict.any(axis=0)
    # A column with ``≤`` pairs but no strict one holds only sum ties.
    pending = le.any(axis=0) & ~dominated
    if pending.any():
        cols = np.flatnonzero(pending)
        _, cj = _differs(window, chunk[:, cols], le[:, cols])
        dominated[cols[cj]] = True
    return dominated


def _count_dominators_block(
    window: np.ndarray,
    chunk: np.ndarray,
    wsum: np.ndarray,
    csum: np.ndarray,
) -> np.ndarray:
    """Per ``chunk`` point: how many ``window`` points dominate it.

    The counting twin of :func:`_any_dominates_block`, on the same
    column-major operands with the same sum strictness and the same
    cleared diagonal when ``window is chunk``; every tie pair is resolved,
    since each one may add to a count.
    """
    le = _le_block(window, chunk)
    if le is None:
        return np.zeros(chunk.shape[1], dtype=np.int64)
    if window is chunk:
        np.fill_diagonal(le, False)
    strict = wsum[:, None] < csum
    dom = le & strict
    ties = le & ~strict
    cols = np.flatnonzero(ties.any(axis=0))
    if cols.size:
        wi, cj = _differs(window, chunk[:, cols], ties[:, cols])
        dom[wi, cols[cj]] = True
    return dom.sum(axis=0)


_KERNELS: dict[str, DominanceKernel] = {
    "scalar": ScalarKernel(),
    "block": BlockKernel(),
}


def get_kernel(name: str | DominanceKernel | None = None) -> DominanceKernel:
    """Resolve a kernel from a name (or pass an instance through).

    ``None`` resolves via :func:`default_kernel_name`.  Kernels are
    stateless, so the two built-ins are shared singletons — cheap to
    resolve per call and safe to ship through job params.
    """
    if isinstance(name, DominanceKernel):
        return name
    resolved = (name or default_kernel_name()).strip().lower()
    kernel = _KERNELS.get(resolved)
    if kernel is None:
        raise ValueError(
            f"unknown kernel {name!r}; expected one of {', '.join(KERNEL_NAMES)}"
        )
    return kernel
