"""Experiment harness: cached workloads and single-run execution.

Every figure of the paper runs over the same workload family (the synthetic
QWS dataset, optionally extended, evaluated at attribute prefixes d = 2…10),
so the harness caches datasets and QoS matrices per ``(n, seed, d)`` —
re-generating 100 k services for each of 15 figure points would dominate the
benchmark run.

:func:`run_point` executes one (method, n, d, workers) cell and returns a
flat record with everything any figure needs: simulated phase times (the
paper's Hadoop-cluster seconds), measured driver times, dominance-test
counts, skyline sizes, and the §VI optimality metric.  Figures are then just
different column selections over a sweep of such records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Tuple

import numpy as np

from repro.core.mr_skyline import MRSkylineResult, run_mr_skyline
from repro.core.optimality import optimality_of_result
from repro.mapreduce.cluster import ClusterSpec
from repro.observability.report import summarize_spans
from repro.observability.tracing import get_tracer
from repro.services.qws import ServiceDataset, extend_dataset, generate_qws

__all__ = [
    "DEFAULT_CLUSTER",
    "DatasetCache",
    "default_cache",
    "run_point",
    "sweep",
]

#: Baseline simulated cluster for figure generation: the paper's smallest
#: configuration (4 slave servers, Hadoop-0.20-era slots/overheads).
#: ``speed_factor=100`` converts this machine's vectorised-NumPy task
#: seconds into 2009-era row-at-a-time Java seconds, putting the simulated
#: seconds in the paper's range (its Figure-6 four-server point is ≈230 s).
#: The factor scales task compute but not the launch, job or shuffle
#: charges, so method ratios depend on it; the gate checks them at 100
#: only (DESIGN.md §5, docs/tuning.md).
DEFAULT_CLUSTER = ClusterSpec(num_nodes=4, speed_factor=100.0)

#: Seeds used for the synthetic QWS base and its extension.
_BASE_SEED = 42
_EXTEND_SEED = 43

#: The paper's base dataset size (10,000 real services).
_BASE_N = 10_000


class DatasetCache:
    """Caches ServiceDatasets and minimisation matrices by (n, d)."""

    def __init__(self, base_seed: int = _BASE_SEED, extend_seed: int = _EXTEND_SEED):
        self._base_seed = base_seed
        self._extend_seed = extend_seed
        self._datasets: Dict[int, ServiceDataset] = {}
        self._matrices: Dict[Tuple[int, int], np.ndarray] = {}

    def dataset(self, n: int) -> ServiceDataset:
        """The synthetic QWS dataset at cardinality ``n``.

        ``n ≤ 10,000`` subsamples the base (the paper's "real" part);
        larger ``n`` extends it with the copula resampler, as the paper
        extends QWS to 100,000 services.
        """
        if n not in self._datasets:
            base = self._datasets.get(_BASE_N)
            if base is None:
                base = generate_qws(_BASE_N, seed=self._base_seed)
                self._datasets[_BASE_N] = base
            if n == _BASE_N:
                ds = base
            elif n < _BASE_N:
                ds = base.subset(n, seed=self._base_seed)
            else:
                ds = extend_dataset(base, n, seed=self._extend_seed)
            self._datasets[n] = ds
        return self._datasets[n]

    def matrix(self, n: int, d: int) -> np.ndarray:
        """Minimisation-oriented QoS matrix for (cardinality, dimension)."""
        key = (n, d)
        if key not in self._matrices:
            self._matrices[key] = self.dataset(n).qos_matrix(d)
        return self._matrices[key]

    def clear(self) -> None:
        self._datasets.clear()
        self._matrices.clear()


_GLOBAL_CACHE = DatasetCache()


def default_cache() -> DatasetCache:
    """The process-wide dataset cache shared by the CLI and the gate."""
    return _GLOBAL_CACHE


@dataclass(frozen=True, slots=True)
class PointRecord:
    """One (method, n, d, workers) measurement."""

    method: str
    n: int
    d: int
    workers: int
    partitions: int
    sim_total_s: float
    sim_map_s: float
    sim_reduce_s: float
    driver_wall_s: float
    dominance_tests: int
    global_skyline: int
    local_skyline_total: int
    optimality: float
    points_pruned: int
    #: Per-phase trace breakdown (``summarize_spans`` output) when the run
    #: executed under an enabled tracer; ``None`` otherwise.
    trace_summary: Dict[str, Any] | None = None
    #: Engine execution policy the cell ran under.
    executor: str = "serial"
    #: Dominance backend ("scalar" / "block") and broadcast filter-set size.
    kernel: str = "scalar"
    filter_points: int = 0

    @classmethod
    def from_result(
        cls,
        result: MRSkylineResult,
        *,
        n: int,
        d: int,
        cluster: ClusterSpec,
        trace_summary: Dict[str, Any] | None = None,
    ) -> "PointRecord":
        sim = result.simulate(cluster)
        report = optimality_of_result(result)
        return cls(
            method=result.method,
            n=n,
            d=d,
            workers=cluster.num_nodes,
            partitions=result.num_partitions,
            sim_total_s=sim.total_s,
            sim_map_s=sim.map_time_s,
            sim_reduce_s=sim.reduce_time_s,
            driver_wall_s=result.processing_time_s,
            dominance_tests=result.dominance_tests,
            global_skyline=int(result.global_indices.size),
            local_skyline_total=int(
                sum(v.size for v in result.local_skylines.values())
            ),
            optimality=report.optimality,
            points_pruned=result.points_pruned,
            trace_summary=trace_summary,
            executor=result.executor,
            kernel=result.kernel,
            filter_points=result.filter_points,
        )


def run_point(
    method: str,
    n: int,
    d: int,
    *,
    cluster: ClusterSpec = DEFAULT_CLUSTER,
    cache: DatasetCache | None = None,
    **mr_kwargs,
) -> PointRecord:
    """Execute one figure cell end to end on the simulated cluster.

    Under an enabled tracer each cell becomes a ``bench`` span, and the
    spans finishing inside it are summarized into the record's
    ``trace_summary`` (per-phase seconds/shares, task percentiles).
    """
    cache = cache or default_cache()
    matrix = cache.matrix(n, d)
    tracer = get_tracer()
    with tracer.capture() as spans:
        with tracer.span(
            "bench.point",
            kind="bench",
            method=method,
            n=n,
            d=d,
            workers=cluster.num_nodes,
        ):
            result = run_mr_skyline(
                matrix, method=method, num_workers=cluster.num_nodes, **mr_kwargs
            )
    trace_summary = summarize_spans(spans) if tracer.enabled else None
    return PointRecord.from_result(
        result, n=n, d=d, cluster=cluster, trace_summary=trace_summary
    )


def sweep(
    methods: Iterable[str],
    n: int,
    dims: Iterable[int],
    *,
    cluster: ClusterSpec = DEFAULT_CLUSTER,
    cache: DatasetCache | None = None,
    **mr_kwargs,
) -> List[PointRecord]:
    """The cross-product sweep behind Figures 5 and 7."""
    records: List[PointRecord] = []
    for d in dims:
        for method in methods:
            records.append(
                run_point(
                    method, n, d, cluster=cluster, cache=cache, **mr_kwargs
                )
            )
    return records
