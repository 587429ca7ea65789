"""Coordinator-side merge of per-shard candidate answers.

Each fan-out leg returns the shard's *local* answer — its local skyline /
k-skyband / constrained / subspace result, already filter-pruned — as
``(global ids, rows)``.  This module turns the union of those candidate
sets into the exact global answer:

* ``skyline`` — the global skyline equals the skyline of the union of
  local skylines, so the candidates go through the reduce-side BNL
  (:func:`repro.core.bnl.bnl_merge`) via the kernel seam — the same merge
  the batch pipeline's reduce stage runs;
* ``skyband`` — the global k-skyband equals the k-skyband of the union of
  local k-skybands: a point with ``>= k`` global dominators has, in some
  single shard, dominators forming a chain prefix of ``k`` points that are
  themselves locally in the k-skyband, so every global refutation survives
  into the union;
* ``constrained`` / ``subspace`` — the same union-closure argument applied
  inside the query box / projected subspace.

All but ``skyline`` are evaluated by :func:`repro.serving.queries.evaluate`
on the coordinator's kernel.

The merged rows come back alongside the ids because the coordinator feeds
them straight to :func:`repro.core.filtering.compute_filter_points` — the
next fan-out's broadcast filter set.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.bnl import bnl_merge
from repro.core.kernels import DominanceKernel
from repro.serving.queries import QuerySpec, evaluate

__all__ = ["merge_candidates"]


def merge_candidates(
    spec: QuerySpec,
    answers: Sequence[Tuple[Sequence[int], np.ndarray]],
    *,
    kernel: str | DominanceKernel | None = None,
) -> Tuple[List[int], np.ndarray]:
    """Merge per-shard ``(global ids, rows)`` answers into the global one.

    Returns ``(ids ascending, rows aligned with ids)``.  ``answers`` may
    be any subset of the fan-out (a degraded merge simply covers fewer
    shards); empty answers are skipped.
    """
    ids_parts: List[np.ndarray] = []
    rows_parts: List[np.ndarray] = []
    width = 0
    for shard_ids, shard_rows in answers:
        rows = np.asarray(shard_rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[0] == 0:
            continue
        if len(shard_ids) != rows.shape[0]:
            raise ValueError(
                f"shard answer mismatch: {len(shard_ids)} ids "
                f"for {rows.shape[0]} rows"
            )
        ids_parts.append(np.asarray(shard_ids, dtype=np.intp))
        rows_parts.append(rows)
        width = rows.shape[1]
    if not ids_parts:
        return [], np.empty((0, width))
    cat_ids = np.concatenate(ids_parts)
    cat_rows = np.vstack(rows_parts)
    if spec.kind == "skyline":
        result = bnl_merge(rows_parts, kernel=kernel)
        keep = result.indices
        order = np.argsort(cat_ids[keep], kind="stable")
        keep = keep[order]
        return [int(i) for i in cat_ids[keep]], cat_rows[keep]
    merged = evaluate(spec, cat_ids, cat_rows, kernel=kernel)
    position = {int(pid): i for i, pid in enumerate(cat_ids.tolist())}
    rows = (
        cat_rows[[position[pid] for pid in merged]]
        if merged
        else np.empty((0, width))
    )
    return merged, rows
