"""Skyline query processing core — the paper's contribution.

Layout:

* :mod:`repro.core.dominance` — Pareto-dominance primitives (minimisation)
* :mod:`repro.core.blocks` — columnar :class:`PointBlock` batches
* :mod:`repro.core.kernels` — pluggable dominance backends
  (``scalar`` reference / ``block`` columnar)
* :mod:`repro.core.filtering` — Ciaccia–Martinenghi filter-point selection
* :mod:`repro.core.bnl` / :mod:`repro.core.sfs` — single-machine skyline
  algorithms
* :mod:`repro.core.skyline` — unified single-machine API
* :mod:`repro.core.hyperspherical` — Eq. (1) coordinate transform
* :mod:`repro.core.partitioning` — dimensional / grid / angular / random
  data-space partitioners
* :mod:`repro.core.mr_skyline` — MR-Dim, MR-Grid, MR-Angle drivers
  (Algorithm 1) on the MapReduce engine
* :mod:`repro.core.optimality` — the §VI local-skyline-optimality metric
* :mod:`repro.core.dominance_ability` — §IV Theorems 1–2 + Monte-Carlo
* :mod:`repro.core.incremental` — dynamic service insertion/removal (§II)
"""

from typing import Any

from repro._lazy import lazy_export

# Eager: the function shares its name with its own submodule, and a lazy
# lookup would lose to the submodule attribute once anything imported it.
from repro.core.skyline import skyline

# Public names by home module, imported on first use (PEP 562).
_EXPORTS = {
    "repro.core.blocks": ("PointBlock", "concat_blocks"),
    "repro.core.bnl": ("BNLResult", "bnl_merge", "bnl_skyline"),
    "repro.core.dominance": (
        "DominanceCounter",
        "dominance_matrix",
        "dominated_mask",
        "dominates",
        "dominates_any",
        "incomparable",
        "validate_points",
    ),
    "repro.core.dominance_ability": (
        "delta_dominance",
        "delta_lower_bound",
        "dominance_ability_angle",
        "dominance_ability_grid",
        "empirical_dominance_ability",
    ),
    "repro.core.hyperspherical": (
        "MAX_ANGLE",
        "angular_coordinates",
        "from_hyperspherical",
        "to_hyperspherical",
    ),
    "repro.core.filtering": (
        "DEFAULT_FILTER_K",
        "DEFAULT_FILTER_SAMPLE",
        "compute_filter_points",
    ),
    "repro.core.incremental": ("IncrementalSkyline",),
    "repro.core.kernels": (
        "KERNEL_NAMES",
        "BlockKernel",
        "DominanceKernel",
        "ScalarKernel",
        "default_kernel_name",
        "get_kernel",
        "set_default_kernel",
        "sort_first_order",
    ),
    "repro.core.mr_skyline": (
        "MRSkylineResult",
        "default_partition_count",
        "run_mr_skyline",
        "update_mr_skyline",
    ),
    "repro.core.optimality": (
        "OptimalityReport",
        "local_skyline_optimality",
        "optimality_of_result",
        "per_partition_optimality",
    ),
    "repro.core.partitioning": (
        "AngularPartitioner",
        "DimensionalPartitioner",
        "GridPartitioner",
        "RandomPartitioner",
        "SpacePartitioner",
        "load_imbalance",
        "make_partitioner",
        "partition_sizes",
    ),
    "repro.core.representative": (
        "RepresentativeResult",
        "distance_representatives",
        "max_dominance_representatives",
    ),
    "repro.core.sfs": ("SFSResult", "monotone_score", "sfs_skyline"),
    "repro.core.skyband": ("dominator_counts", "k_skyband", "top_k_dominating"),
    "repro.core.skyline": ("is_skyline", "skyline_numpy", "skyline_points"),
}


def __getattr__(name: str) -> Any:
    return lazy_export(__name__, _EXPORTS, name)


__all__ = [
    "AngularPartitioner",
    "BNLResult",
    "BlockKernel",
    "DEFAULT_FILTER_K",
    "DEFAULT_FILTER_SAMPLE",
    "DimensionalPartitioner",
    "DominanceCounter",
    "DominanceKernel",
    "GridPartitioner",
    "IncrementalSkyline",
    "KERNEL_NAMES",
    "PointBlock",
    "ScalarKernel",
    "MAX_ANGLE",
    "MRSkylineResult",
    "OptimalityReport",
    "RandomPartitioner",
    "RepresentativeResult",
    "SFSResult",
    "SpacePartitioner",
    "angular_coordinates",
    "bnl_merge",
    "bnl_skyline",
    "compute_filter_points",
    "concat_blocks",
    "default_kernel_name",
    "default_partition_count",
    "delta_dominance",
    "delta_lower_bound",
    "dominance_ability_angle",
    "dominance_ability_grid",
    "distance_representatives",
    "dominance_matrix",
    "dominated_mask",
    "dominates",
    "dominates_any",
    "dominator_counts",
    "empirical_dominance_ability",
    "from_hyperspherical",
    "get_kernel",
    "incomparable",
    "is_skyline",
    "k_skyband",
    "load_imbalance",
    "local_skyline_optimality",
    "make_partitioner",
    "max_dominance_representatives",
    "monotone_score",
    "optimality_of_result",
    "partition_sizes",
    "per_partition_optimality",
    "run_mr_skyline",
    "set_default_kernel",
    "sfs_skyline",
    "skyline",
    "sort_first_order",
    "skyline_numpy",
    "skyline_points",
    "to_hyperspherical",
    "top_k_dominating",
    "update_mr_skyline",
    "validate_points",
]
