"""Integration tests: the MR-Dim / MR-Grid / MR-Angle pipelines end to end."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.mr_skyline import (
    COUNTER_GROUP,
    PartitionAssignMapper,
    default_partition_count,
    run_mr_skyline,
)
from repro.core.partitioning import AngularPartitioner, GridPartitioner, make_partitioner
from repro.core.skyline import skyline_numpy
from repro.mapreduce.runner import Runner
from repro.observability.metrics import MetricsRegistry, get_metrics, observe_partition_skew

METHODS = ("dim", "grid", "angle", "random")

nonneg_clouds = arrays(
    np.float64,
    st.tuples(st.integers(2, 80), st.integers(2, 4)),
    elements=st.floats(0, 50, allow_nan=False),
)


@pytest.fixture(scope="module")
def cloud():
    return np.random.default_rng(42).random((3000, 4))


class TestCorrectness:
    @pytest.mark.parametrize("method", METHODS)
    def test_matches_reference(self, cloud, method):
        result = run_mr_skyline(cloud, method=method, num_workers=4)
        assert np.array_equal(result.global_indices, skyline_numpy(cloud))

    @pytest.mark.parametrize("method", METHODS)
    def test_local_skylines_cover_global(self, cloud, method):
        result = run_mr_skyline(cloud, method=method, num_workers=4)
        union = set()
        for sky in result.local_skylines.values():
            union.update(sky.tolist())
        assert set(result.global_indices.tolist()) <= union

    def test_partition_rule(self):
        assert default_partition_count(4) == 8
        with pytest.raises(ValueError):
            default_partition_count(0)

    def test_num_partitions_override(self, cloud):
        result = run_mr_skyline(cloud, method="angle", num_partitions=3)
        assert result.num_partitions == 3
        assert np.array_equal(result.global_indices, skyline_numpy(cloud))

    def test_single_partition_degenerate(self, cloud):
        result = run_mr_skyline(cloud, method="angle", num_partitions=1)
        assert np.array_equal(result.global_indices, skyline_numpy(cloud))

    def test_tiny_input(self):
        pts = np.array([[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]])
        result = run_mr_skyline(pts, method="angle", num_workers=2)
        assert result.global_indices.tolist() == [0, 1]

    def test_single_point(self):
        result = run_mr_skyline(np.array([[1.0, 1.0]]), method="dim")
        assert result.global_indices.tolist() == [0]

    def test_block_size_invariant(self, cloud):
        a = run_mr_skyline(cloud, method="angle", block_rows=100)
        b = run_mr_skyline(cloud, method="angle", block_rows=4096)
        assert np.array_equal(a.global_indices, b.global_indices)

    def test_combiner_invariant(self, cloud):
        plain = run_mr_skyline(cloud, method="angle")
        combined = run_mr_skyline(cloud, method="angle", use_combiner=True)
        assert np.array_equal(plain.global_indices, combined.global_indices)

    def test_window_size_invariant(self, cloud):
        bounded = run_mr_skyline(cloud, method="angle", window_size=16)
        assert np.array_equal(bounded.global_indices, skyline_numpy(cloud))

    def test_grid_pruning_invariant(self, cloud):
        pruned = run_mr_skyline(cloud, method="grid", prune_grid_cells=True)
        unpruned = run_mr_skyline(cloud, method="grid", prune_grid_cells=False)
        assert np.array_equal(pruned.global_indices, unpruned.global_indices)

    def test_grid_pruning_drops_points_in_2d(self):
        pts = np.random.default_rng(1).random((2000, 2))
        result = run_mr_skyline(
            pts, method="grid", num_partitions=4, prune_grid_cells=True
        )
        assert result.points_pruned > 0
        assert np.array_equal(result.global_indices, skyline_numpy(pts))

    def test_explicit_partitioner(self, cloud):
        p = AngularPartitioner(6, bins="equal-width")
        result = run_mr_skyline(cloud, partitioner=p)
        assert result.method == "angle"
        assert result.num_partitions == 6
        assert np.array_equal(result.global_indices, skyline_numpy(cloud))

    def test_tree_merge_matches_single(self, cloud):
        single = run_mr_skyline(cloud, method="angle", num_partitions=32)
        tree = run_mr_skyline(
            cloud,
            method="angle",
            num_partitions=32,
            merge_strategy="tree",
            merge_fan_in=4,
        )
        assert np.array_equal(single.global_indices, tree.global_indices)
        # 32 partitions at fan-in 4: 32 -> 8 -> final merge = 2 extra jobs...
        # actually 32 -> 8 (round 0), 8 <= fan? no (8 > 4) -> 8 -> 2, then
        # final merge: partition job + 2 tree rounds + merge = 4 jobs.
        assert len(tree.chain.results) == 4
        assert "treemerge" in tree.chain.results[1].job_name

    def test_tree_merge_small_partition_count_skips_rounds(self, cloud):
        tree = run_mr_skyline(
            cloud, method="angle", num_partitions=4, merge_strategy="tree",
            merge_fan_in=8,
        )
        assert len(tree.chain.results) == 2  # nothing to pre-merge

    def test_tree_merge_validation(self, cloud):
        with pytest.raises(ValueError, match="merge_strategy"):
            run_mr_skyline(cloud, merge_strategy="hyper")
        with pytest.raises(ValueError, match="merge_fan_in"):
            run_mr_skyline(cloud, merge_strategy="tree", merge_fan_in=1)

    def test_multiprocess_runner_agrees(self, cloud):
        serial = run_mr_skyline(cloud, method="angle", num_workers=2)
        mp = run_mr_skyline(
            cloud,
            method="angle",
            num_workers=2,
            runner=Runner("processes", num_workers=2),
        )
        assert np.array_equal(serial.global_indices, mp.global_indices)

    @pytest.mark.parametrize("method", ("dim", "grid", "angle"))
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_property_any_cloud(self, method, data):
        pts = data.draw(nonneg_clouds)
        result = run_mr_skyline(pts, method=method, num_workers=2)
        assert np.array_equal(result.global_indices, skyline_numpy(pts))


class TestResultMetadata:
    def test_counters_present(self, cloud):
        result = run_mr_skyline(cloud, method="angle")
        assert result.counters.value(COUNTER_GROUP, "points_mapped") == 3000
        assert result.dominance_tests > 0

    def test_summary_fields(self, cloud):
        s = run_mr_skyline(cloud, method="angle").summary()
        assert s["method"] == "angle"
        assert s["global_skyline"] == skyline_numpy(cloud).size
        assert s["processing_time_s"] > 0

    def test_chain_has_two_jobs(self, cloud):
        result = run_mr_skyline(cloud, method="angle")
        assert len(result.chain.results) == 2
        assert result.chain.results[0].job_name == "mr-angle-partition"
        assert result.chain.results[1].job_name == "mr-angle-merge"

    def test_partition_ids_match_local_skylines(self, cloud):
        result = run_mr_skyline(cloud, method="angle")
        for pid, sky in result.local_skylines.items():
            assert (result.partition_ids[sky] == pid).all()

    def test_simulate_hook(self, cloud):
        from repro.mapreduce.cluster import ClusterSpec

        result = run_mr_skyline(cloud, method="angle")
        sim = result.simulate(ClusterSpec(num_nodes=4))
        assert sim.total_s > 0
        assert len(sim.jobs) == 2

    def test_map_reduce_busy_positive(self, cloud):
        result = run_mr_skyline(cloud, method="angle")
        assert result.map_busy_s > 0
        assert result.reduce_busy_s > 0


class _CaptureContext:
    """Just the two calls a mapper makes: emitted pairs and counter totals."""

    def __init__(self):
        self.pairs = []
        self.counts = {}

    def emit(self, key, value):
        self.pairs.append((key, value))

    def increment(self, group, name, amount=1):
        self.counts[group, name] = self.counts.get((group, name), 0) + amount


def _masked_routing(indices, rows, params):
    """The map routing as first written, on plain arrays: a brute-force
    filter, then np.unique of the partition ids and one boolean mask (and
    gather) per partition."""
    ctx = _CaptureContext()
    ctx.increment(COUNTER_GROUP, "points_mapped", len(indices))
    filters = params.get("filters")
    if filters is not None and len(indices):
        le = (filters[:, None, :] <= rows[None, :, :]).all(axis=2)
        lt = (filters[:, None, :] < rows[None, :, :]).any(axis=2)
        alive = ~(le & lt).any(axis=0)
        if not alive.all():
            ctx.increment(COUNTER_GROUP, "points_pruned", int((~alive).sum()))
            indices, rows = indices[alive], rows[alive]
    ids = params["partitioner"].assign(rows)
    for pid in np.unique(ids):
        mask = ids == pid
        if int(pid) in params["pruned"]:
            ctx.increment(COUNTER_GROUP, "points_pruned", int(mask.sum()))
            continue
        ctx.emit(int(pid), (indices[mask], rows[mask]))
    return ctx


def _routing_partitioner(scheme, pts):
    if scheme == "grid":  # two slabs per axis: a top corner is often pruned
        return GridPartitioner(2 ** pts.shape[1], cells_per_dim=[2] * pts.shape[1]).fit(pts)
    return make_partitioner(scheme, 8).fit(pts)


#: Coordinates drawn from a few integers as often as from a range, so rows
#: tie and repeat.
_coordinates = st.one_of(
    st.integers(0, 3).map(float), st.floats(0, 10, allow_nan=False, width=32)
)


@st.composite
def _routing_cases(draw):
    d = draw(st.integers(2, 4))
    base = draw(arrays(np.float64, (draw(st.integers(1, 40)), d), elements=_coordinates))
    repeats = draw(st.lists(st.integers(0, len(base) - 1), max_size=10))
    pts = np.vstack([base, base[repeats]])
    if draw(st.booleans()):
        pts = np.asfortranarray(pts)
    step = draw(st.integers(1, len(pts) + 1))
    cuts = list(range(0, len(pts), step)) + [len(pts)]
    records = [(start, stop) for start, stop in zip(cuts, cuts[1:])]
    # An empty record, as the driver sends for an empty input.
    records.append((len(pts), len(pts)))
    filters = draw(st.lists(st.integers(0, len(pts) - 1), min_size=1, max_size=6))
    kernel = draw(st.sampled_from(["scalar", "block"]))
    return pts, records, filters, kernel


class TestMapRouting:
    """One stable gather per record routes every row where the per-partition
    masks did: same keys, ids and rows, in the same order."""

    @pytest.mark.parametrize("scheme", ["angle", "grid", "random", "dim"])
    @pytest.mark.parametrize("filtered", [False, True])
    @given(case=_routing_cases())
    @settings(max_examples=40, deadline=None)
    def test_payloads_equal_the_masked_routing(self, scheme, filtered, case):
        pts, records, filter_rows, kernel = case
        partitioner = _routing_partitioner(scheme, pts)
        pruned = frozenset()
        if isinstance(partitioner, GridPartitioner):
            pruned = frozenset(int(c) for c in partitioner.pruned_cells())
        params = {
            "partitioner": partitioner,
            "pruned": pruned,
            "kernel": kernel,
            "filters": np.ascontiguousarray(pts[filter_rows]) if filtered else None,
        }
        mapper = PartitionAssignMapper()
        mapper.setup(params)
        for start, stop in records:
            indices = np.arange(start, stop, dtype=np.intp)
            ctx = _CaptureContext()
            mapper.map(start, (indices, pts[start:stop]), ctx)
            want = _masked_routing(indices, pts[start:stop], params)
            assert [k for k, _ in ctx.pairs] == [k for k, _ in want.pairs]
            for (_, (ids, rows)), (_, (want_ids, want_rows)) in zip(ctx.pairs, want.pairs):
                assert ids.dtype == np.intp and np.array_equal(ids, want_ids)
                assert rows.flags["C_CONTIGUOUS"] and np.array_equal(rows, want_rows)
            for name in ("points_mapped", "points_pruned"):
                assert ctx.counts.get((COUNTER_GROUP, name)) == want.counts.get(
                    (COUNTER_GROUP, name)
                ), name

    def test_empty_record_emits_nothing(self):
        partitioner = AngularPartitioner(4).fit(np.random.default_rng(0).random((50, 3)))
        mapper = PartitionAssignMapper()
        mapper.setup({"partitioner": partitioner})
        ctx = _CaptureContext()
        mapper.map(0, (np.empty(0, dtype=np.intp), np.empty((0, 3))), ctx)
        assert ctx.pairs == []


#: Every scheme and angular bin mode the driver can fit, as partitioners.
SINGLE_PASS_SCHEMES = {
    "dim": lambda: make_partitioner("dim", 8),
    "grid": lambda: make_partitioner("grid", 8),
    "random": lambda: make_partitioner("random", 8),
    "angle-quantile": lambda: AngularPartitioner(8),
    "angle-equal-width": lambda: AngularPartitioner(8, bins="equal-width"),
    "angle-balanced": lambda: AngularPartitioner(8, allocation="balanced"),
    "angle-explicit": lambda: AngularPartitioner(
        4, boundaries=[np.array([0.6, 0.9]), np.array([]), np.array([0.8])]
    ),
}


class TestSinglePassPartitionIds:
    """The driver takes partition ids (and skew) from the fit where it can;
    they must equal a separate ``assign`` pass bit for bit."""

    @pytest.mark.parametrize("scheme", sorted(SINGLE_PASS_SCHEMES))
    def test_partition_ids_equal_a_second_assign_pass(self, cloud, scheme):
        result = run_mr_skyline(
            cloud, partitioner=SINGLE_PASS_SCHEMES[scheme](), kernel="block"
        )
        again = result.partitioner.assign(cloud)
        assert result.partition_ids.dtype == again.dtype == np.int64
        assert np.array_equal(result.partition_ids, again)

    def test_quantile_fit_hands_its_ids_back(self, cloud):
        fitted = []
        AngularPartitioner(8).fit(cloud, ids_out=fitted)
        assert len(fitted) == 1 and fitted[0].shape == (cloud.shape[0],)
        other = []
        AngularPartitioner(8, bins="equal-width").fit(cloud, ids_out=other)
        assert other == []

    @pytest.mark.parametrize("scheme", ["angle-quantile", "grid"])
    def test_skew_gauges_unchanged(self, cloud, scheme):
        result = run_mr_skyline(
            cloud, partitioner=SINGLE_PASS_SCHEMES[scheme](), kernel="block"
        )
        sizes = np.bincount(
            result.partitioner.assign(cloud), minlength=result.num_partitions
        )
        expected = observe_partition_skew(MetricsRegistry(), sizes)
        gauges = get_metrics().snapshot()["gauges"]
        for name, value in expected.items():
            assert gauges[f"partition.{name}"] == value, name

    def test_pickled_partitioner_does_not_grow_with_n(self):
        rng = np.random.default_rng(3)
        sizes = []
        for n in (500, 20_000):
            result = run_mr_skyline(rng.random((n, 4)), method="angle", kernel="block")
            sizes.append(len(pickle.dumps(result.partitioner)))
        assert abs(sizes[1] - sizes[0]) < 64, sizes
