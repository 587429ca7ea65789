"""repro — MapReduce skyline query processing with angular partitioning.

A from-scratch reproduction of

    Liang Chen, Kai Hwang, Jian Wu.
    "MapReduce Skyline Query Processing with A New Angular Partitioning
    Approach." IEEE IPDPS Workshops (IPDPSW), 2012.

Packages:

* :mod:`repro.core` — skyline algorithms (BNL/SFS/D&C), the hyperspherical
  transform, the three data-space partitioners, the MR-Dim / MR-Grid /
  MR-Angle pipelines, the optimality metric, and the §IV theory.
* :mod:`repro.mapreduce` — the Hadoop-like execution engine substrate plus
  the deterministic cluster timing simulator.
* :mod:`repro.services` — QoS schema, synthetic QWS workload, UDDI-like
  registry, service selection.
* :mod:`repro.data` — benchmark data generators and persistence.
* :mod:`repro.bench` — experiment drivers regenerating every figure.

Quick start::

    import numpy as np
    from repro import run_mr_skyline

    points = np.random.default_rng(0).random((10_000, 4))
    result = run_mr_skyline(points, method="angle", num_workers=4)
    print(result.global_indices)        # skyline row indices
    print(result.summary())
"""

from typing import Any

from repro._lazy import lazy_export

__version__ = "1.0.0"

# Public names by home module, imported on first use (PEP 562) so that
# `import repro.<subpackage>` loads only what that subpackage needs.
_EXPORTS = {
    "repro.core": (
        "AngularPartitioner",
        "DimensionalPartitioner",
        "GridPartitioner",
        "IncrementalSkyline",
        "MRSkylineResult",
        "RandomPartitioner",
        "bnl_skyline",
        "dominates",
        "run_mr_skyline",
        "sfs_skyline",
        "skyline",
        "to_hyperspherical",
    ),
    "repro.services": (
        "QWS_SCHEMA",
        "ServiceDataset",
        "ServiceRegistry",
        "extend_dataset",
        "generate_qws",
        "select_services",
    ),
}


def __getattr__(name: str) -> Any:
    return lazy_export(__name__, _EXPORTS, name)


__all__ = [
    "AngularPartitioner",
    "DimensionalPartitioner",
    "GridPartitioner",
    "IncrementalSkyline",
    "MRSkylineResult",
    "QWS_SCHEMA",
    "RandomPartitioner",
    "ServiceDataset",
    "ServiceRegistry",
    "__version__",
    "bnl_skyline",
    "dominates",
    "extend_dataset",
    "generate_qws",
    "run_mr_skyline",
    "select_services",
    "sfs_skyline",
    "skyline",
    "to_hyperspherical",
]
