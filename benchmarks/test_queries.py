"""Micro-benchmarks for the skyline-adjacent query operators.

Covers the extension surface: k-skyband, top-k dominating, representative
selection, and workflow composition — the operators a service-selection
deployment calls per user query, so their latency matters more than the
batch pipelines'.
"""

import numpy as np
import pytest

from repro.core.representative import (
    distance_representatives,
    max_dominance_representatives,
)
from repro.core.skyband import k_skyband, top_k_dominating
from repro.services.composition import CompositionTask, skyline_compositions

N, D = 5_000, 4


@pytest.fixture(scope="module")
def cloud():
    return np.random.default_rng(31).random((N, D))


def test_k_skyband(benchmark, cloud):
    result = benchmark(k_skyband, cloud, 3)
    assert result.size > 0


def test_top_k_dominating(benchmark, cloud):
    result = benchmark(top_k_dominating, cloud, 10)
    assert result.size == 10


def test_max_dominance_representatives(benchmark, cloud):
    result = benchmark(max_dominance_representatives, cloud, 5)
    assert len(result) == 5


def test_distance_representatives(benchmark, cloud):
    result = benchmark(distance_representatives, cloud, 5)
    assert len(result) == 5


def test_workflow_composition(benchmark):
    rng = np.random.default_rng(32)
    tasks = [
        CompositionTask(f"t{i}", rng.uniform(0, 100, (200, 3)))
        for i in range(3)
    ]
    result = benchmark(
        skyline_compositions, tasks, ["sum", "prob", "max"]
    )
    assert len(result) > 0
