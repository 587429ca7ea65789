"""Tests for the reproduction gate (shape checks)."""

import pytest

from repro.bench.expectations import (
    CheckResult,
    ShapeCheck,
    _angle_fastest,
    _angle_gap_grows,
    _fig6_declines_and_saturates,
    _fig7_angle_rises,
    _fig7_dim_lowest,
    _fig7_eq_width_beats_grid,
    _fig7_eq_width_magnitude,
    _fig7_ordering_at_top_dim,
    _theory_bound_holds,
    reproduction_checks,
)
from repro.bench.reporting import Table


def _fig5_table(dim_vals, grid_vals, angle_vals):
    t = Table(title="t", columns=["dimension", "MR-Dim", "MR-Grid", "MR-Angle"])
    for d, a, b, c in zip((2, 6, 10), dim_vals, grid_vals, angle_vals):
        t.add_row(d, a, b, c)
    return t


class TestPredicates:
    def test_angle_fastest_pass(self):
        t = _fig5_table([10, 20, 30], [11, 22, 33], [5, 6, 7])
        assert _angle_fastest(t) == ""

    def test_angle_fastest_fail(self):
        t = _fig5_table([10, 20, 30], [11, 22, 33], [5, 25, 7])
        assert "slower" in _angle_fastest(t)

    def test_gap_grows_pass(self):
        t = _fig5_table([10, 40, 90], [11, 44, 99], [5, 10, 15])
        assert _angle_gap_grows(t) == ""

    def test_gap_grows_fail_shrinking(self):
        t = _fig5_table([50, 40, 30], [55, 44, 33], [5, 10, 20])
        assert "shrank" in _angle_gap_grows(t)

    def test_gap_grows_fail_small_factor(self):
        t = _fig5_table([10, 11, 12], [10, 11, 12], [9, 10, 10])
        assert "floor" in _angle_gap_grows(t)

    def test_fig6_pass(self):
        t = Table(title="t", columns=["servers", "map_time_s", "reduce_time_s", "total_s"])
        for s, total in zip((4, 8, 16, 32), (100, 80, 72, 70)):
            t.add_row(s, 10, total - 10, total)
        assert _fig6_declines_and_saturates(t) == ""

    def test_fig6_fail_no_speedup(self):
        t = Table(title="t", columns=["servers", "map_time_s", "reduce_time_s", "total_s"])
        for s in (4, 8, 16, 32):
            t.add_row(s, 10, 90, 100)
        assert "no total speedup" in _fig6_declines_and_saturates(t)

    def test_fig6_fail_no_saturation(self):
        t = Table(title="t", columns=["servers", "map_time_s", "reduce_time_s", "total_s"])
        for s, total in zip((4, 8, 16, 32), (100, 99, 98, 50)):
            t.add_row(s, 10, total - 10, total)
        assert "saturate" in _fig6_declines_and_saturates(t)

    def test_fig7_ordering(self):
        t = Table(
            title="t",
            columns=["dimension", "MR-Dim", "MR-Grid", "MR-Angle"],
        )
        t.add_row(10, 0.1, 0.3, 0.4)
        assert _fig7_ordering_at_top_dim(t) == ""
        bad = Table(
            title="t",
            columns=["dimension", "MR-Dim", "MR-Grid", "MR-Angle"],
        )
        bad.add_row(10, 0.1, 0.5, 0.4)
        assert "broken" in _fig7_ordering_at_top_dim(bad)

    def test_fig7_dim_lowest(self):
        t = _fig5_table([0.1, 0.1, 0.1], [0.2, 0.3, 0.3], [0.3, 0.4, 0.5])
        assert _fig7_dim_lowest(t) == ""
        bad = _fig5_table([0.1, 0.1, 0.1], [0.2, 0.05, 0.3], [0.3, 0.4, 0.5])
        assert "MR-Grid optimality below MR-Dim at d=6" in _fig7_dim_lowest(bad)

    def test_fig7_angle_rises(self):
        t = _fig5_table([0.1, 0.1, 0.1], [0.2, 0.3, 0.3], [0.1, 0.4, 0.3])
        assert _fig7_angle_rises(t) == ""
        flat = _fig5_table([0.1, 0.1, 0.1], [0.2, 0.3, 0.3], [0.3, 0.4, 0.3])
        assert "does not rise" in _fig7_angle_rises(flat)

    def test_fig7_eq_width_beats_grid(self):
        t = Table(title="t", columns=["dimension", "MR-Grid", "MR-Angle(eq-width)"])
        t.add_row(2, 0.5, 0.1)
        t.add_row(10, 0.3, 0.45)
        assert _fig7_eq_width_beats_grid(t) == ""
        t.add_row(12, 0.3, 0.3)
        assert "<= MR-Grid" in _fig7_eq_width_beats_grid(t)

    def test_eq_width_band(self):
        t = Table(title="t", columns=["dimension", "MR-Angle(eq-width)"])
        t.add_row(10, 0.65)
        assert _fig7_eq_width_magnitude(t) == ""
        low = Table(title="t", columns=["dimension", "MR-Angle(eq-width)"])
        low.add_row(10, 0.2)
        assert "band" in _fig7_eq_width_magnitude(low)

    def test_theory(self):
        t = Table(
            title="t",
            columns=["x", "D_angle_eq3", "D_angle_mc", "bound_holds"],
        )
        t.add_row(0.5, 0.75, 0.751, True)
        assert _theory_bound_holds(t) == ""
        bad = Table(
            title="t",
            columns=["x", "D_angle_eq3", "D_angle_mc", "bound_holds"],
        )
        bad.add_row(0.5, 0.75, 0.80, True)
        assert "diverges" in _theory_bound_holds(bad)


class TestShapeCheck:
    def test_run_pass(self):
        check = ShapeCheck(
            name="x",
            claim="always true",
            predicate=lambda t: "",
            table_fn=lambda: Table(title="t", columns=["a"]),
        )
        result = check.run()
        assert result.passed
        assert result.detail == "always true"
        assert bool(result)

    def test_run_fail(self):
        check = ShapeCheck(
            name="x",
            claim="c",
            predicate=lambda t: "broken",
            table_fn=lambda: Table(title="t", columns=["a"]),
        )
        result = check.run()
        assert not result.passed
        assert result.detail == "broken"

    def test_suite_declares_six_checks(self):
        # The six original paper-shape checks, plus three optimality
        # orderings read from the Figure-7 tables.
        names = [c.name for c in reproduction_checks(quick=True)]
        assert {
            "fig5b-angle-fastest",
            "fig5b-gap-grows",
            "fig6-saturating-speedup",
            "fig7b-ordering",
            "fig7a-eq-width-magnitude",
            "theory-eq3-eq4",
        } <= set(names)
        assert len(names) == 9
        assert len(set(names)) == 9

    def test_each_table_is_built_once_per_suite(self, monkeypatch):
        import repro.bench.expectations as expectations

        calls = []

        def fake_figure5(*args, **kwargs):
            calls.append(args)
            return _fig5_table([10, 40, 90], [11, 44, 99], [5, 10, 15])

        monkeypatch.setattr(expectations, "figure5", fake_figure5)
        checks = [
            c for c in reproduction_checks(quick=True) if c.name.startswith("fig5b")
        ]
        assert len(checks) == 2
        assert all(c.run().passed for c in checks)
        assert len(calls) == 1
        # A second suite builds its own table.
        for check in reproduction_checks(quick=True):
            if check.name.startswith("fig5b"):
                check.run()
        assert len(calls) == 2


class TestCliVerify:
    def test_verify_quick(self, capsys):
        from repro.cli import main

        rc = main(["verify", "--quick"])
        out = capsys.readouterr().out
        assert "reproduction gate" in out
        assert rc == 0
        assert "9/9 shape checks passed" in out
