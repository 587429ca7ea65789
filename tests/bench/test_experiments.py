"""Tests for the figure drivers (scaled-down parameters)."""

import numpy as np
import pytest

from repro.bench.experiments import (
    PAPER_DIMS,
    PAPER_METHODS,
    ablations,
    figure5,
    figure6,
    figure7,
    headline,
    stragglers,
    theory,
)
from repro.bench.harness import DatasetCache
from repro.mapreduce.cluster import ClusterSpec

QUICK = ClusterSpec(num_nodes=2, speed_factor=1.0)


@pytest.fixture(scope="module")
def cache():
    return DatasetCache()


class TestFigure5:
    def test_structure(self, cache):
        t = figure5(400, dims=(2, 3), cluster=QUICK, cache=cache)
        assert t.columns == ["dimension", "MR-Dim", "MR-Grid", "MR-Angle"]
        assert t.column("dimension") == [2, 3]
        for method in ("MR-Dim", "MR-Grid", "MR-Angle"):
            assert all(v > 0 for v in t.column(method))

    def test_title_marks_subfigure(self, cache):
        assert "5(a)" in figure5(400, dims=(2,), cluster=QUICK, cache=cache).title
        assert "5(b)" in figure5(
            10_500, dims=(2,), cluster=QUICK, cache=cache
        ).title


class TestFigure6:
    def test_structure(self, cache):
        t = figure6(
            n=2_000, d=4, node_counts=(2, 4), base_cluster=QUICK, cache=cache
        )
        assert t.columns == [
            "servers",
            "map_time_s",
            "reduce_time_s",
            "total_s",
            "total_tree_merge_s",
        ]
        assert t.column("servers") == [2, 4]
        for row in t.rows:
            assert row[3] == pytest.approx(row[1] + row[2])
            assert row[4] > 0

    def test_tree_merge_column_optional(self, cache):
        t = figure6(
            n=2_000,
            d=4,
            node_counts=(2,),
            base_cluster=QUICK,
            cache=cache,
            include_tree_merge=False,
        )
        assert t.columns == ["servers", "map_time_s", "reduce_time_s", "total_s"]

    def test_more_servers_not_slower(self, cache):
        t = figure6(
            n=2_000, d=4, node_counts=(2, 4, 8), base_cluster=QUICK, cache=cache
        )
        totals = t.column("total_s")
        assert totals == sorted(totals, reverse=True) or max(totals) == totals[0]


class TestFigure7:
    def test_structure(self, cache):
        t = figure7(400, dims=(2, 3), cluster=QUICK, cache=cache)
        assert t.columns[-1] == "MR-Angle(eq-width)"
        for col in t.columns[1:]:
            assert all(0 <= v <= 1 for v in t.column(col))

    def test_without_equal_width_column(self, cache):
        t = figure7(
            400, dims=(2,), cluster=QUICK, cache=cache, include_equal_width=False
        )
        assert t.columns == ["dimension", "MR-Dim", "MR-Grid", "MR-Angle"]


class TestHeadline:
    def test_structure(self, cache):
        t = headline(n=2_000, d=4, cluster=QUICK, cache=cache)
        assert t.column("method") == ["MR-Dim", "MR-Grid", "MR-Angle"]
        speedups = dict(zip(t.column("method"), t.column("speedup_vs_angle")))
        assert speedups["MR-Angle"] == pytest.approx(1.0)
        assert all(s > 0 for s in speedups.values())

    def test_angle_does_least_dominance_work(self, cache):
        t = headline(n=2_000, d=4, cluster=QUICK, cache=cache)
        tests = dict(zip(t.column("method"), t.column("dominance_tests")))
        assert tests["MR-Angle"] == min(tests.values())


class TestTheory:
    def test_bound_always_holds(self):
        t = theory(mc_samples=20_000, grid_points=5)
        assert all(t.column("bound_holds"))

    def test_monte_carlo_tracks_closed_form(self):
        t = theory(mc_samples=100_000, grid_points=5)
        for closed, mc in zip(t.column("D_angle_eq3"), t.column("D_angle_mc")):
            assert mc == pytest.approx(closed, abs=0.02)

    def test_angle_beats_grid_everywhere(self):
        t = theory(mc_samples=10_000, grid_points=7)
        for a, g in zip(t.column("D_angle_eq3"), t.column("D_grid")):
            assert a > g


class TestAblations:
    @pytest.fixture(scope="class")
    def table(self, cache):
        return ablations(n=400, d=3, cluster=QUICK, cache=cache)

    def test_all_variants_present(self, table):
        variants = table.column("variant")
        assert "angle (2x workers, quantile)" in variants
        assert "grid (with pruning)" in variants
        assert "random baseline" in variants
        assert len(variants) >= 8

    def test_metrics_sane(self, table):
        assert all(v > 0 for v in table.column("sim_total_s"))
        assert all(0 <= v <= 1 for v in table.column("optimality"))
        assert all(v >= 1.0 or v == 0.0 for v in table.column("imbalance"))

    def test_angular_trade_offs(self, table):
        rows = {row[0]: row for row in table.rows}
        opt = table.columns.index("optimality")
        imb = table.columns.index("imbalance")
        quantile = rows["angle (2x workers, quantile)"]
        equal_width = rows["angle equal-width bins"]
        # Quantile sectors balance load; equal-width sectors trade that
        # balance for optimality.
        assert quantile[imb] < 1.2
        assert equal_width[opt] > quantile[opt]
        assert equal_width[imb] > quantile[imb]
        # Fewer partitions fragment the skyline less.
        assert rows["angle 1x workers"][opt] >= rows["angle 4x workers"][opt]


class TestStragglers:
    def test_structure(self, cache):
        t = stragglers(n=400, d=3, cluster=QUICK, cache=cache)
        assert t.columns[0] == "straggler_prob"
        overheads = t.column("overhead_vs_clean")
        assert all(v >= 1.0 - 1e-9 for v in overheads)
        # prob 0 row is the baseline.
        assert overheads[0] == pytest.approx(1.0)

    def test_speculation_not_worse(self, cache):
        t = stragglers(n=400, d=3, cluster=QUICK, cache=cache)
        rows = {(r[0], r[2]): r[3] for r in t.rows}
        for prob in (0.1, 0.3):
            assert rows[(prob, True)] <= rows[(prob, False)] + 1e-9


class TestConstants:
    def test_paper_dims(self):
        assert PAPER_DIMS == (2, 4, 6, 8, 10)

    def test_paper_methods(self):
        assert PAPER_METHODS == ("dim", "grid", "angle")
