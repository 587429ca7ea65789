"""Web-service / QoS domain layer.

* :mod:`repro.services.qos` — attribute schema, polarity normalisation
* :mod:`repro.services.qws` — synthetic QWS dataset + the paper's extension
  procedure (the evaluation workload)
* :mod:`repro.services.registry` — UDDI-like registry with incremental
  per-category skylines
* :mod:`repro.services.selection` — user-facing skyline selection + ranking
* :mod:`repro.services.composition` — QoS-aware workflow composition with
  per-task skyline pruning
"""

from typing import Any

from repro._lazy import lazy_export

# Public names by home module, imported on first use (PEP 562).
_EXPORTS = {
    "repro.services.composition": (
        "CompositionResult",
        "CompositionTask",
        "aggregate_qos",
        "skyline_compositions",
    ),
    "repro.services.qos": ("Polarity", "QoSAttribute", "QoSSchema"),
    "repro.services.qws": (
        "QWS_SCHEMA",
        "ServiceDataset",
        "extend_dataset",
        "generate_qws",
    ),
    "repro.services.registry": ("Service", "ServiceRegistry"),
    "repro.services.selection": (
        "SelectionResult",
        "rank_by_utility",
        "select_services",
    ),
}


def __getattr__(name: str) -> Any:
    return lazy_export(__name__, _EXPORTS, name)


__all__ = [
    "CompositionResult",
    "CompositionTask",
    "Polarity",
    "QWS_SCHEMA",
    "QoSAttribute",
    "QoSSchema",
    "SelectionResult",
    "Service",
    "ServiceDataset",
    "aggregate_qos",
    "ServiceRegistry",
    "extend_dataset",
    "generate_qws",
    "rank_by_utility",
    "select_services",
    "skyline_compositions",
]
