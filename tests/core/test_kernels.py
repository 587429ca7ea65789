"""Dominance kernels: selection plumbing, sort-first invariant, backends."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.dominance import DominanceCounter
from repro.core.filtering import compute_filter_points
from repro.core.kernels import (
    BLOCK_CHUNK,
    ENV_KERNEL,
    FILTER_CHUNK,
    FIRST_CHUNK,
    KERNEL_NAMES,
    BlockKernel,
    ScalarKernel,
    default_kernel_name,
    get_kernel,
    set_default_kernel,
    sort_first_order,
    _any_dominates_block,
    _column_sums,
    _columns,
    _count_dominators_block,
    _sweep_chunks,
)
from repro.core.sfs import sfs_skyline
from repro.core.skyline import skyline_numpy


@pytest.fixture(autouse=True)
def _clean_kernel_state(monkeypatch):
    monkeypatch.delenv(ENV_KERNEL, raising=False)
    previous = set_default_kernel(None)
    yield
    set_default_kernel(previous)


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestSelection:
    def test_registry_names(self):
        assert KERNEL_NAMES == ("scalar", "block")
        assert isinstance(get_kernel("scalar"), ScalarKernel)
        assert isinstance(get_kernel("block"), BlockKernel)

    def test_default_is_scalar(self):
        assert default_kernel_name() == "scalar"
        assert get_kernel(None).name == "scalar"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(ENV_KERNEL, "block")
        assert default_kernel_name() == "block"
        assert get_kernel(None).name == "block"

    def test_set_default_beats_env_and_restores(self, monkeypatch):
        monkeypatch.setenv(ENV_KERNEL, "scalar")
        previous = set_default_kernel("block")
        assert default_kernel_name() == "block"
        set_default_kernel(previous)
        assert default_kernel_name() == "scalar"

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            get_kernel("simd")
        with pytest.raises(ValueError, match="unknown kernel"):
            set_default_kernel("simd")

    def test_instance_passthrough(self):
        knl = get_kernel("block")
        assert get_kernel(knl) is knl

    def test_singletons(self):
        assert get_kernel("scalar") is get_kernel("scalar")
        assert get_kernel("block") is get_kernel("block")


class TestSortFirstOrder:
    @pytest.mark.parametrize("d", [2, 4, 10])
    def test_no_later_point_dominates_an_earlier_one(self, d):
        knl = get_kernel("scalar")
        pts = _rng(d).random((120, d))
        pts[10:20] = pts[0]  # duplicate run
        order = sort_first_order(pts)
        ordered = pts[order]
        for i in range(1, len(ordered)):
            assert not knl.any_dominates(ordered[i:], ordered[i - 1])

    def test_deterministic_permutation(self):
        pts = _rng(3).random((50, 4))
        assert np.array_equal(sort_first_order(pts), sort_first_order(pts))


def _lexsort_reference(pts):
    """The sort-first permutation as one full lexsort: score, then every
    coordinate in order, then the row index (lexsort is stable)."""
    scores = np.log1p(pts - pts.min(axis=0, keepdims=True)).sum(axis=1)
    keys = tuple(pts[:, j] for j in range(pts.shape[1] - 1, -1, -1))
    return np.lexsort(keys + (scores,))


@st.composite
def tie_heavy_grids(draw):
    """Small integer grids: many equal scores, from duplicate rows and from
    distinct rows alike (coordinate permutations share a score)."""
    n = draw(st.integers(1, 80))
    d = draw(st.integers(1, 8))
    top = draw(st.integers(0, 3))
    pts = draw(arrays(np.float64, (n, d), elements=st.integers(0, top).map(float)))
    if d > 1 and draw(st.booleans()):
        # Rows that are coordinate permutations of an earlier row.
        k = draw(st.integers(1, n))
        pts[-k:] = pts[:k][:, ::-1]
    if n > 1 and draw(st.booleans()):
        k = draw(st.integers(1, n - 1))
        pts[-k:] = pts[:k]
    return pts


class TestSortFirstTiebreak:
    @given(tie_heavy_grids())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_full_lexsort(self, pts):
        assert np.array_equal(sort_first_order(pts), _lexsort_reference(pts))

    def test_equal_scores_from_distinct_rows(self):
        pts = np.array([[2.0, 0.0], [0.0, 2.0], [1.0, 1.0], [0.0, 2.0], [2.0, 0.0]])
        scores = np.log1p(pts).sum(axis=1)
        assert scores[0] == scores[1] and scores[1] != scores[2]
        order = sort_first_order(pts)
        assert order.tolist() == [1, 3, 0, 4, 2]
        assert np.array_equal(order, _lexsort_reference(pts))

    def test_no_ties_keeps_the_score_order(self):
        pts = _rng(4).random((500, 6))
        scores = np.log1p(pts - pts.min(axis=0)).sum(axis=1)
        assert np.unique(scores).size == 500
        assert np.array_equal(sort_first_order(pts), np.argsort(scores))

    def test_infinite_columns_tie_like_the_lexsort(self):
        # An all-infinite column makes every score NaN; lexsort ties NaNs.
        pts = _rng(5).integers(0, 2, size=(40, 3)).astype(float)
        pts[:, 1] = np.inf
        with np.errstate(invalid="ignore"):
            assert np.array_equal(sort_first_order(pts), _lexsort_reference(pts))


def _self_pair_paths(pts):
    """The intra-chunk pass on ``pts`` with the diagonal (a copy of the
    chunk as window) and without it (the chunk itself as window)."""
    cols = _columns(pts)
    sums = _column_sums(cols)
    plain = (cols.copy(), cols, sums, sums)
    within = (cols, cols, sums, sums)
    return (
        (_any_dominates_block(*plain), _any_dominates_block(*within)),
        (_count_dominators_block(*plain), _count_dominators_block(*within)),
    )


class TestSelfPairs:
    """Dropping the diagonal of the intra-chunk pass changes no mask and no
    count: a point paired with itself only ever fed the tie path."""

    @pytest.mark.parametrize(
        "pts",
        [
            np.ones((7, 4)),
            np.zeros((1, 3)),
            np.array([[1.0, 2.0], [1.0, 2.0], [2.0, 1.0], [1.0, 2.0], [0.0, 3.0]]),
            _rng(1).integers(0, 2, size=(300, 5)).astype(float),
            np.repeat(_rng(2).random((20, 8)), 6, axis=0),
        ],
        ids=["all-equal", "one-row", "duplicates", "binary-grid", "repeated-rows"],
    )
    def test_equals_the_plain_path(self, pts):
        (plain, within), (plain_count, within_count) = _self_pair_paths(pts)
        assert np.array_equal(plain, within)
        assert np.array_equal(plain_count, within_count)

    def test_all_equal_chunk_has_no_dominator(self):
        (_, within), (_, counts) = _self_pair_paths(np.full((50, 6), 3.0))
        assert not within.any() and not counts.any()

    @given(tie_heavy_grids())
    @settings(max_examples=200, deadline=None)
    def test_property_equals_the_plain_path(self, pts):
        (plain, within), (plain_count, within_count) = _self_pair_paths(pts)
        assert np.array_equal(plain, within)
        assert np.array_equal(plain_count, within_count)


def _datasets(d, seed=0):
    rng = _rng(seed)
    yield "random", rng.random((300, d))
    yield "duplicates", rng.integers(0, 3, size=(200, d)).astype(float)
    yield "degenerate", np.tile(rng.random((1, d)), (40, 1))
    anti = rng.random((150, d))
    anti[:, -1] = d - anti[:, :-1].sum(axis=1)  # all on a simplex: all skyline
    yield "anti-correlated", anti


class TestBackendParity:
    @pytest.mark.parametrize("d", [2, 4, 10])
    def test_skyline_matches_oracle_and_each_other(self, d):
        for name, pts in _datasets(d):
            oracle = skyline_numpy(pts)
            scalar = get_kernel("scalar").skyline(pts)
            block = get_kernel("block").skyline(pts)
            assert np.array_equal(scalar, oracle), name
            assert np.array_equal(block, oracle), name

    def test_sweep_chunks_grow_then_hold(self):
        bounds = _sweep_chunks(5 * BLOCK_CHUNK)
        sizes = [stop - start for start, stop in bounds]
        assert sizes[0] == FIRST_CHUNK
        assert all(b == min(2 * a, BLOCK_CHUNK) for a, b in zip(sizes, sizes[1:-1]))
        assert BLOCK_CHUNK in sizes
        assert bounds[0][0] == 0 and bounds[-1][1] == 5 * BLOCK_CHUNK
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        assert _sweep_chunks(0) == []
        assert _sweep_chunks(FIRST_CHUNK - 1) == [(0, FIRST_CHUNK - 1)]

    def test_block_chunk_boundaries(self):
        # Sizes straddling every candidate-chunk boundary (63/64/65,
        # 191/192/193, ... up to the end of the second steady BLOCK_CHUNK
        # step) exercise the growing sweep's window bookkeeping.
        bounds = _sweep_chunks(4 * BLOCK_CHUNK)
        full = [i for i, (a, b) in enumerate(bounds) if b - a == BLOCK_CHUNK]
        stops = [stop for _, stop in bounds[: full[1] + 1]]
        sizes = sorted({b + delta for b in stops for delta in (-1, 0, 1)})
        assert {FIRST_CHUNK - 1, FIRST_CHUNK, FIRST_CHUNK + 1} <= set(sizes)
        for n in sizes:
            pts = _rng(n).random((n, 3))
            oracle = skyline_numpy(pts)
            assert np.array_equal(get_kernel("block").skyline(pts), oracle), n
            assert np.array_equal(
                sfs_skyline(pts, kernel="block").indices, oracle
            ), n

    @pytest.mark.parametrize(
        "boundary", [FIRST_CHUNK, 3 * FIRST_CHUNK, 31 * FIRST_CHUNK]
    )
    def test_ties_and_dominators_across_a_chunk_boundary(self, boundary):
        # A sweep input in valid sort-first order, built so that an exact
        # duplicate and a dominated row sit in the chunk after their twin
        # and their dominator.  Rows on the simplex Σv = 1 dominate nothing
        # among themselves, so any order of them is valid; rows with
        # Σv > 1 cannot dominate them, so they may follow in sum order.
        assert boundary in {stop for _, stop in _sweep_chunks(4 * boundary)}
        rng = _rng(boundary)
        front = rng.dirichlet(np.ones(4), size=boundary + 40)
        front[boundary] = front[boundary - 1]  # twin across the boundary
        front[boundary + 1] = front[boundary - 2] + [0.25, 0.0, 0.0, 0.0]
        tail = rng.dirichlet(np.ones(4), size=100) + rng.random((100, 4))
        tail = tail[np.argsort(tail.sum(axis=1), kind="stable")]
        rows = np.vstack([front, tail])
        oracle = skyline_numpy(rows)
        members = set(oracle.tolist())
        assert {boundary - 1, boundary, boundary - 2} <= members
        assert boundary + 1 not in members
        want = np.zeros(rows.shape[0], dtype=bool)
        want[oracle] = True
        for name in KERNEL_NAMES:
            assert np.array_equal(get_kernel(name).sweep_sorted(rows), want), name
        shuffled = rng.permutation(rows.shape[0])
        pts = rows[shuffled]
        oracle = skyline_numpy(pts)
        assert np.array_equal(get_kernel("block").skyline(pts), oracle)
        assert np.array_equal(sfs_skyline(pts, kernel="block").indices, oracle)

    def test_single_point_ops_agree(self):
        window = _rng(1).random((64, 5))
        point = window.mean(axis=0)
        scalar, block = get_kernel("scalar"), get_kernel("block")
        assert scalar.dominates(window[0], point) == block.dominates(
            window[0], point
        )
        assert scalar.any_dominates(window, point) == block.any_dominates(
            window, point
        )
        assert np.array_equal(
            scalar.dominated_in(window, point), block.dominated_in(window, point)
        )

    def test_counting_ops_agree(self):
        pts = _rng(2).random((180, 4))
        scalar, block = get_kernel("scalar"), get_kernel("block")
        assert np.array_equal(
            scalar.dominator_counts(pts), block.dominator_counts(pts)
        )

    def test_dominance_tests_counted(self):
        pts = _rng(5).random((256, 4))
        for name in KERNEL_NAMES:
            counter = DominanceCounter()
            get_kernel(name).skyline(pts, counter=counter)
            assert counter.tests > 0, name


@st.composite
def filter_inputs(draw):
    """``(filters, rows, k)``: float or tie-heavy integer-grid rows, filters
    drawn from the rows (as the cluster broadcast does) or free."""
    n = draw(st.integers(0, 60))
    d = draw(st.integers(1, 5))
    if draw(st.booleans()):
        elements = st.integers(0, 3).map(float)
    else:
        elements = st.floats(0, 20, allow_nan=False)
    pts = draw(arrays(np.float64, (n, d), elements=elements))
    if n and draw(st.booleans()):
        take = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=12))
        filters = pts[take]
    else:
        filters = draw(arrays(np.float64, (draw(st.integers(1, 12)), d), elements=elements))
    return filters, pts, draw(st.sampled_from([1, 2, 3, 5]))


class TestFilterSurvivors:
    @pytest.mark.parametrize("kernel", list(KERNEL_NAMES))
    def test_pruning_is_exact(self, kernel):
        pts = _rng(6).random((500, 4))
        filters = compute_filter_points(pts, k=16, sample=128)
        assert filters.shape[0] <= 16
        alive = get_kernel(kernel).filter_survivors(filters, pts)
        # No skyline member may be pruned, and pruning must bite.
        assert alive[skyline_numpy(pts)].all()
        assert not alive.all()

    def test_backends_agree_and_count(self):
        pts = _rng(7).random((400, 5))
        filters = compute_filter_points(pts, k=8, sample=200)
        masks = {}
        for name in KERNEL_NAMES:
            counter = DominanceCounter()
            masks[name] = get_kernel(name).filter_survivors(
                filters, pts, counter=counter
            )
            assert counter.tests == filters.shape[0] * pts.shape[0]
        assert np.array_equal(masks["scalar"], masks["block"])

    def test_rows_not_a_multiple_of_the_filter_chunk(self):
        n = FILTER_CHUNK + 123
        pts = _rng(9).random((n, 4))
        filters = compute_filter_points(pts, k=12, sample=256)
        scalar = get_kernel("scalar").filter_survivors(filters, pts)
        block = get_kernel("block").filter_survivors(filters, pts)
        assert np.array_equal(scalar, block)
        assert block[skyline_numpy(pts)].all()
        assert not block[FILTER_CHUNK:].all()

    def test_empty_filter_set_prunes_nothing(self):
        pts = _rng(8).random((30, 3))
        filters = compute_filter_points(pts, k=0)
        for name in KERNEL_NAMES:
            assert get_kernel(name).filter_survivors(filters, pts).all()

    @given(filter_inputs())
    @settings(max_examples=80, deadline=None)
    def test_skyband_counts_match_dense_formula(self, case):
        filters, pts, k = case
        le = (filters[None, :, :] <= pts[:, None, :]).all(axis=2)
        lt = (filters[None, :, :] < pts[:, None, :]).any(axis=2)
        dense = (le & lt).sum(axis=1) < k
        for name in KERNEL_NAMES:
            counter = DominanceCounter()
            alive = get_kernel(name).filter_survivors(
                filters, pts, k=k, counter=counter
            )
            assert np.array_equal(alive, dense), (name, k)
            assert counter.tests == filters.shape[0] * pts.shape[0]

    def test_skyband_k_one_is_the_default_mask(self):
        pts = _rng(10).random((300, 4))
        filters = compute_filter_points(pts, k=8, sample=128)
        for name in KERNEL_NAMES:
            knl = get_kernel(name)
            assert np.array_equal(
                knl.filter_survivors(filters, pts, k=1),
                knl.filter_survivors(filters, pts),
            )

    def test_skyband_rows_straddle_the_filter_chunk(self):
        pts = _rng(11).integers(0, 4, size=(FILTER_CHUNK + 57, 3)).astype(float)
        filters = pts[:20]
        for k in (2, 3):
            scalar = get_kernel("scalar").filter_survivors(filters, pts, k=k)
            block = get_kernel("block").filter_survivors(filters, pts, k=k)
            assert np.array_equal(scalar, block), k

    @pytest.mark.parametrize("kernel", list(KERNEL_NAMES))
    def test_k_zero_rejected(self, kernel):
        pts = _rng(12).random((5, 2))
        with pytest.raises(ValueError, match="k must be"):
            get_kernel(kernel).filter_survivors(pts[:2], pts, k=0)


class TestFilterSelection:
    def test_deterministic_and_ranked(self):
        pts = _rng(9).random((1000, 4))
        a = compute_filter_points(pts, k=12, sample=256)
        b = compute_filter_points(pts, k=12, sample=256)
        assert np.array_equal(a, b)

    def test_filters_are_actual_data_rows(self):
        pts = _rng(10).random((600, 3))
        filters = compute_filter_points(pts, k=8, sample=100)
        for row in filters:
            assert (pts == row).all(axis=1).any()

    def test_at_most_k_filters(self):
        pts = _rng(11).random((200, 3))
        filters = compute_filter_points(pts, k=4)
        assert 0 < filters.shape[0] <= 4

    def test_validation(self):
        pts = _rng(12).random((10, 2))
        with pytest.raises(ValueError):
            compute_filter_points(pts, k=-1)
        with pytest.raises(ValueError):
            compute_filter_points(pts, k=4, sample=0)
