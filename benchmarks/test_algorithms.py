"""Micro-benchmarks of the single-machine skyline algorithms.

Not a paper figure — these quantify the building blocks (BNL vs SFS)
across the three canonical workloads, and are
the numbers to watch when optimising the inner dominance kernels.
"""

import pytest

from repro.core.bnl import bnl_skyline
from repro.core.sfs import sfs_skyline
from repro.data.generators import generate

N = 5_000
D = 5

ALGORITHMS = {
    "bnl": lambda pts: bnl_skyline(pts).indices,
    "sfs": lambda pts: sfs_skyline(pts).indices,
}


@pytest.mark.parametrize("workload", ["independent", "correlated", "anticorrelated"])
@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_algorithm_workload(benchmark, algo, workload):
    pts = generate(workload, N, D, seed=11)
    fn = ALGORITHMS[algo]
    result = benchmark(fn, pts)
    assert result.size > 0


def test_bounded_window_bnl(benchmark):
    pts = generate("independent", N, D, seed=12)
    result = benchmark(lambda: bnl_skyline(pts, window_size=64).indices)
    assert result.size > 0
