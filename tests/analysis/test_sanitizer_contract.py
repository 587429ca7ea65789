"""Contract: the sanitizer-observed acquisition graph is a subgraph of the
statically predicted one.

The static flow layer over-approximates (it reports every ordering that
*can* happen); the runtime sanitizer under-approximates (only orderings
that *did* happen).  Driving real serving traffic under the sanitizer must
therefore never produce an edge the static analysis missed — if it does,
either the call-graph resolver lost an edge or the runtime attribution is
mislabeling a lock.
"""

import os

import numpy as np
import pytest

import repro
from repro.analysis.flow import LockAnalysis
from repro.analysis.project import Project
from repro.observability.metrics import MetricsRegistry, set_metrics
from repro.observability.sanitizer import LockOrderSanitizer
from repro.serving.service import ServeConfig, SkylineService


@pytest.fixture(scope="module")
def static_edges():
    src = os.path.dirname(os.path.abspath(repro.__file__))
    project = Project.load([src])
    analysis = LockAnalysis.build(project)
    return analysis.edge_pairs()


def test_observed_acquisitions_are_a_static_subgraph(static_edges):
    sanitizer = LockOrderSanitizer(prefixes=("repro",)).install()
    registry = set_metrics(MetricsRegistry())  # fresh -> sanitized _lock
    try:
        rng = np.random.default_rng(7)
        service = SkylineService(ServeConfig())
        service.register("contract", rng.random((64, 3)))
        service.stats()
    finally:
        sanitizer.uninstall()
        set_metrics(registry)
    observed = sanitizer.observed_edges()
    assert observed, "driving register+stats should nest at least one lock"
    unexplained = observed - static_edges
    assert not unexplained, (
        "sanitizer observed lock orderings the static analysis does not "
        f"predict: {sorted(unexplained)}"
    )
    assert sanitizer.inversions == []
