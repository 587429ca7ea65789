"""Differential parity: every algorithm returns identical skyline ids under
the scalar and block kernels.

The skyline of a point set is unique, so any divergence between backends is
a kernel bug, never a legitimate tie-break difference.  The suite drives
every re-routed algorithm (BNL, SFS, skyband, incremental, the MapReduce
pipeline under all three paper partitioners, with and without filter
pruning) over adversarial inputs — duplicates, degenerate single-point
clouds, anti-correlated simplices, d ∈ {2, 4, 10} — and Hypothesis searches
for counterexamples the curated sets miss.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bnl import bnl_skyline
from repro.core.incremental import IncrementalSkyline
from repro.core.dominance import DominanceCounter
from repro.core.kernels import FIRST_CHUNK, KERNEL_NAMES, get_kernel, sort_first_order
from repro.core.mr_skyline import run_mr_skyline
from repro.core.partitioning import make_partitioner
from repro.core.sfs import sfs_skyline
from repro.core.skyband import k_skyband, top_k_dominating
from repro.core.skyline import skyline_numpy

DIMS = (2, 4, 10)
METHODS = ("dim", "grid", "angle")


def _datasets(d, seed=0):
    rng = np.random.default_rng(seed)
    yield "random", rng.random((240, d))
    yield "duplicates", rng.integers(0, 3, size=(180, d)).astype(float)
    yield "degenerate", np.tile(rng.random((1, d)), (25, 1))
    anti = rng.random((120, d))
    anti[:, -1] = d - anti[:, :-1].sum(axis=1)
    yield "anti-correlated", anti


def _ids(x):
    return np.sort(np.asarray(x, dtype=np.intp))


class TestSingleMachineParity:
    @pytest.mark.parametrize("d", DIMS)
    def test_bnl(self, d):
        for name, pts in _datasets(d):
            expected = skyline_numpy(pts)
            for kernel in KERNEL_NAMES:
                got = bnl_skyline(pts, kernel=kernel).indices
                assert np.array_equal(_ids(got), expected), (name, kernel)

    @pytest.mark.parametrize("d", DIMS)
    def test_bnl_windowed(self, d):
        for name, pts in _datasets(d):
            expected = skyline_numpy(pts)
            for kernel in KERNEL_NAMES:
                got = bnl_skyline(pts, window_size=16, kernel=kernel).indices
                assert np.array_equal(_ids(got), expected), (name, kernel)

    @pytest.mark.parametrize("d", DIMS)
    def test_sfs(self, d):
        for name, pts in _datasets(d):
            expected = skyline_numpy(pts)
            for kernel in KERNEL_NAMES:
                got = sfs_skyline(pts, kernel=kernel).indices
                assert np.array_equal(_ids(got), expected), (name, kernel)

    @pytest.mark.parametrize("d", DIMS)
    def test_skyband(self, d):
        for name, pts in _datasets(d):
            for k in (1, 3):
                bands = {
                    kernel: k_skyband(pts, k, kernel=kernel)
                    for kernel in KERNEL_NAMES
                }
                assert np.array_equal(bands["scalar"], bands["block"]), name
            tops = {
                kernel: top_k_dominating(pts, 5, kernel=kernel)
                for kernel in KERNEL_NAMES
            }
            assert np.array_equal(tops["scalar"], tops["block"]), name

    @pytest.mark.parametrize("scheme", ("dim", "grid", "angle", "random"))
    def test_incremental_inserts_and_removals(self, scheme):
        rng = np.random.default_rng(17)
        pts = rng.random((150, 4))
        extra = rng.random((20, 4))
        results = {}
        for kernel in KERNEL_NAMES:
            part = make_partitioner(scheme, 4)
            sky = IncrementalSkyline(part, pts, kernel=kernel)
            for row in extra:
                sky.insert(row)
            for victim in (3, 60, 149, 151):
                sky.remove(victim)
            results[kernel] = sorted(sky.global_skyline())
            assert sky.kernel_name == kernel
        assert results["scalar"] == results["block"]


def _layouts(rows):
    """The same rows as a C-contiguous, a Fortran-ordered and a strided
    (non-contiguous) matrix."""
    wide = np.zeros((rows.shape[0] * 2, rows.shape[1] * 2))
    wide[::2, 1::2] = rows
    yield "C", np.ascontiguousarray(rows)
    yield "F", np.asfortranarray(rows)
    yield "strided", wide[::2, 1::2]


def _band_inputs(d, seed):
    rng = np.random.default_rng(seed)
    yield "duplicate-heavy", rng.integers(0, 3, size=(700, d)).astype(float)
    pts = rng.random((1500, d))
    pts[300:600] = pts[:300]
    yield "random+copies", pts
    # A huge shared offset swallows small differences in the row sums, so
    # dominating pairs tie on their sums and need the exact tie check.
    pts = rng.integers(0, 3, size=(700, d)).astype(float)
    pts[:, 0] += 2.0**53
    yield "sum-collisions", pts


class TestBlockLayoutParity:
    """The column-major block kernel against the scalar reference, and
    against itself on every memory layout of the same rows."""

    @pytest.mark.parametrize("k", (1, 2, 3))
    @pytest.mark.parametrize("d", (1, 3, 8))
    def test_filter_survivors(self, k, d):
        scalar, block = get_kernel("scalar"), get_kernel("block")
        for name, pts in _band_inputs(d, seed=d + k):
            filters = pts[:: max(1, pts.shape[0] // 24)][:24]
            ref_counter = DominanceCounter()
            want = scalar.filter_survivors(filters, pts, k=k, counter=ref_counter)
            for layout, rows in _layouts(pts):
                for flayout, flt in _layouts(filters):
                    counter = DominanceCounter()
                    got = block.filter_survivors(flt, rows, k=k, counter=counter)
                    assert np.array_equal(got, want), (name, layout, flayout)
                    assert counter.tests == ref_counter.tests

    @pytest.mark.parametrize("k", (1, 2, 3))
    @pytest.mark.parametrize("d", (1, 3, 8))
    def test_sweep_sorted(self, k, d):
        scalar, block = get_kernel("scalar"), get_kernel("block")
        for name, pts in _band_inputs(d, seed=10 * d + k):
            ordered = pts[sort_first_order(pts)]
            want = scalar.sweep_sorted(ordered, k=k)
            tests = set()
            for layout, rows in _layouts(ordered):
                counter = DominanceCounter()
                got = block.sweep_sorted(rows, k=k, counter=counter)
                assert np.array_equal(got, want), (name, layout)
                tests.add(counter.tests)
            assert len(tests) == 1, (name, tests)


class TestMapReduceParity:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("d", DIMS)
    def test_global_skyline_identical(self, method, d):
        pts = np.random.default_rng(d).random((600, d))
        expected = skyline_numpy(pts)
        for kernel in KERNEL_NAMES:
            for filter_k in (0, 8):
                result = run_mr_skyline(
                    pts, method=method, kernel=kernel, prune_filter_k=filter_k
                )
                assert np.array_equal(
                    _ids(result.global_indices), expected
                ), (method, kernel, filter_k)
                assert result.kernel == kernel
                if filter_k:
                    assert result.filter_points > 0
                else:
                    # points_pruned may still be non-zero: MR-Grid's cell
                    # pruning predates (and composes with) filter pruning.
                    assert result.filter_points == 0

    def test_duplicates_through_the_pipeline(self):
        pts = np.random.default_rng(5).integers(0, 3, size=(300, 4)).astype(float)
        expected = skyline_numpy(pts)
        for kernel in KERNEL_NAMES:
            result = run_mr_skyline(
                pts, method="angle", kernel=kernel, prune_filter_k=8
            )
            assert np.array_equal(_ids(result.global_indices), expected), kernel

    def test_block_defaults_enable_pruning_scalar_does_not(self):
        pts = np.random.default_rng(11).random((800, 4))
        scalar = run_mr_skyline(pts, method="angle", kernel="scalar")
        block = run_mr_skyline(pts, method="angle", kernel="block")
        assert scalar.points_pruned == 0 and scalar.filter_points == 0
        assert block.filter_points > 0 and block.points_pruned > 0
        assert np.array_equal(
            _ids(scalar.global_indices), _ids(block.global_indices)
        )


def _sha256(ids):
    return hashlib.sha256(np.asarray(ids, dtype=np.int64).tobytes()).hexdigest()


def test_block_dominance_tests_on_the_qws_batch_job():
    # The benchmark's batch job (MR-Angle, block kernel, QWS 100,000 x 8),
    # pinned: its k = 1 sweeps count exactly this many dominance tests, and
    # the skyline, the partition ids and the local skylines are these, id
    # for id.  A change to the sort-first order, the sweep's chunking or
    # the partitioning shows up here without running the benchmark.
    from repro.services.qws import extend_dataset, generate_qws

    base = generate_qws(10_000, seed=2012)
    pts = np.ascontiguousarray(
        extend_dataset(base, 100_000, seed=2013).qos_matrix(8)
    )
    result = run_mr_skyline(pts, method="angle", kernel="block")
    assert result.dominance_tests == 590_745
    assert result.global_indices.size == 455
    assert _sha256(result.global_indices) == (
        "73948927898cd1e3f5212ecadf9f7ba62df2840c42629a817e81fc8914e748f3"
    )
    assert _sha256(result.partition_ids) == (
        "9919b6172c43b499ff59d1ed6c59391a109b04abaf77130fc0d6a3d8b157ccff"
    )
    assert np.bincount(result.partition_ids).tolist() == [12_500] * 8
    assert result.points_pruned == 93_006
    assert {p: s.size for p, s in result.local_skylines.items()} == {
        0: 184, 1: 221, 2: 172, 3: 135, 4: 221, 5: 223, 6: 228, 7: 196,
    }


def test_block_job_on_the_serve_mixed_points():
    # The MR-Angle block job that serve-mixed and serve-cluster time,
    # pinned like the batch job above: uniform 1,000 x 4 rounded to the
    # six decimals the wire carries.  The engine's byte accounting is
    # pinned with it: the shuffle counts exactly what the map tasks
    # emitted.
    pts = np.round(np.random.default_rng(2012).random((1000, 4)), 6)
    result = run_mr_skyline(pts, method="angle", kernel="block")
    assert result.dominance_tests == 6_194
    assert sum(r.shuffle_stats.bytes for r in result.chain.results) == 6_376
    map_bytes = [t.bytes_out for r in result.chain.results for t in r.map_stats.tasks]
    assert sum(map_bytes) == 6_376
    assert result.points_pruned == 922
    assert result.global_indices.size == 74
    assert _sha256(result.global_indices) == (
        "a62d55a88e7be4814e2073754f07331509c5bcd04ce5fce4e9dd60edee4becef"
    )
    assert _sha256(result.partition_ids) == (
        "a8be603266ab43cfeb00f867514113838948ec2730878b1561edf1371cf27afd"
    )


# -- Hypothesis: adversarial search beyond the curated sets -------------------

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def matrices(draw):
    n = draw(st.integers(min_value=1, max_value=48))
    d = draw(st.integers(min_value=2, max_value=5))
    base = draw(
        st.lists(
            st.lists(finite, min_size=d, max_size=d),
            min_size=n,
            max_size=n,
        )
    )
    pts = np.array(base, dtype=np.float64)
    if draw(st.booleans()) and n > 1:
        # Inject duplicate rows: copy a prefix over a suffix.
        k = draw(st.integers(min_value=1, max_value=n - 1))
        pts[-k:] = pts[:k]
    return pts


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_hypothesis_backends_match_oracle(pts):
    expected = skyline_numpy(pts)
    for kernel in KERNEL_NAMES:
        assert np.array_equal(
            bnl_skyline(pts, kernel=kernel).indices, expected
        )
        assert np.array_equal(
            _ids(sfs_skyline(pts, kernel=kernel).indices), expected
        )


@given(matrices())
@settings(max_examples=40, deadline=None)
def test_hypothesis_mr_pipeline_matches_oracle(pts):
    expected = skyline_numpy(pts)
    for kernel in KERNEL_NAMES:
        result = run_mr_skyline(
            pts, method="grid", num_workers=2, kernel=kernel, prune_filter_k=4
        )
        assert np.array_equal(_ids(result.global_indices), expected)


@st.composite
def one_chunk_batches(draw):
    """At most ``FIRST_CHUNK`` rows: grid values (ties, duplicates) or floats."""
    n = draw(st.integers(min_value=1, max_value=FIRST_CHUNK))
    d = draw(st.integers(min_value=1, max_value=6))
    values = st.sampled_from([0.0, 0.5, 1.0, 2.0]) if draw(st.booleans()) else finite
    pts = np.array(
        draw(st.lists(st.lists(values, min_size=d, max_size=d), min_size=n, max_size=n)),
        dtype=np.float64,
    )
    if draw(st.booleans()) and n > 1:
        k = draw(st.integers(min_value=1, max_value=n - 1))
        pts[-k:] = pts[:k]
    return pts


@given(one_chunk_batches())
@settings(max_examples=150, deadline=None)
def test_hypothesis_one_chunk_block_skyline_matches_scalar(pts):
    # A block sweep of at most FIRST_CHUNK rows runs in input order, with
    # no sort-first permutation: one intra-chunk pass over every pair,
    # both ways, n^2 tests (none for a single row).
    counter = DominanceCounter()
    got = get_kernel("block").skyline(pts, counter=counter)
    assert np.array_equal(got, get_kernel("scalar").skyline(pts))
    n = pts.shape[0]
    assert counter.tests == (n * n if n > 1 else 0)
