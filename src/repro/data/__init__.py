"""Synthetic data generation.

* :mod:`repro.data.generators` — the Börzsönyi benchmark workloads + clustered
* :mod:`repro.data.distributions` — copula/marginal sampling machinery
"""

from repro.data.distributions import (
    empirical_quantile,
    nearest_correlation,
    sample_with_marginals,
)
from repro.data.generators import anticorrelated, correlated, generate, independent

__all__ = [
    "anticorrelated",
    "correlated",
    "empirical_quantile",
    "generate",
    "independent",
    "nearest_correlation",
    "sample_with_marginals",
]
