"""Benchmark harness: experiment drivers, dataset cache, reporting.

``python -m repro.cli <experiment>`` is the command-line front end;
``python -m repro.cli verify`` runs the same drivers under the reproduction
gate (:mod:`repro.bench.expectations`).
"""

from typing import Any

from repro._lazy import lazy_export

# Public names by home module, imported on first use (PEP 562).
_EXPORTS = {
    "repro.bench.experiments": (
        "PAPER_DIMS",
        "PAPER_METHODS",
        "ablations",
        "figure5",
        "figure6",
        "figure7",
        "headline",
        "stragglers",
        "theory",
    ),
    "repro.bench.harness": (
        "DEFAULT_CLUSTER",
        "DatasetCache",
        "PointRecord",
        "default_cache",
        "run_point",
        "sweep",
    ),
    "repro.bench.reporting": ("Table",),
}


def __getattr__(name: str) -> Any:
    return lazy_export(__name__, _EXPORTS, name)


__all__ = [
    "DEFAULT_CLUSTER",
    "DatasetCache",
    "PAPER_DIMS",
    "PAPER_METHODS",
    "PointRecord",
    "Table",
    "ablations",
    "default_cache",
    "figure5",
    "figure6",
    "figure7",
    "headline",
    "run_point",
    "stragglers",
    "sweep",
    "theory",
]
