"""The reproduction gate: codified shape claims, checked mechanically.

EXPERIMENTS.md narrates paper-vs-measured; this module makes the key claims
*executable*.  Each :class:`ShapeCheck` re-derives one qualitative claim
from a freshly generated figure table and reports pass/fail, so a code
change that silently breaks the reproduction (say, a partitioner regression
that flips the Figure-5 ordering) is caught by ``python -m repro.cli
verify`` rather than by a human rereading tables.

Checks intentionally assert *shapes* — orderings, monotonicity, factor
floors — never absolute seconds (see DESIGN.md §5 on calibration).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, List, Sequence

from repro.bench.experiments import figure5, figure6, figure7, theory
from repro.bench.harness import DEFAULT_CLUSTER, DatasetCache, default_cache
from repro.bench.reporting import Table
from repro.mapreduce.cluster import ClusterSpec

__all__ = ["CheckResult", "ShapeCheck", "reproduction_checks", "verify_all"]


@dataclass(frozen=True, slots=True)
class CheckResult:
    """Outcome of one shape check."""

    name: str
    passed: bool
    detail: str

    def __bool__(self) -> bool:  # allows all(results)
        return self.passed


@dataclass(frozen=True, slots=True)
class ShapeCheck:
    """One executable claim over a figure table."""

    name: str
    claim: str  # the paper-shape being asserted, for reports
    predicate: Callable[[Table], str]  # returns "" on pass, else failure text
    table_fn: Callable[[], Table]

    def run(self) -> CheckResult:
        table = self.table_fn()
        failure = self.predicate(table)
        return CheckResult(
            name=self.name,
            passed=not failure,
            detail=failure or self.claim,
        )


def _angle_fastest(table: Table) -> str:
    angle = table.column("MR-Angle")
    for other in ("MR-Dim", "MR-Grid"):
        for d, a, o in zip(table.column("dimension"), angle, table.column(other)):
            if a > o * 1.02:
                return f"MR-Angle slower than {other} at d={d}: {a:.2f} vs {o:.2f}"
    return ""


def _angle_gap_grows(table: Table) -> str:
    angle = table.column("MR-Angle")
    dim = table.column("MR-Dim")
    first_ratio = dim[0] / angle[0]
    last_ratio = dim[-1] / angle[-1]
    if last_ratio < first_ratio:
        return (
            f"MR-Dim/MR-Angle ratio shrank with dimension: "
            f"{first_ratio:.2f} -> {last_ratio:.2f}"
        )
    if last_ratio < 1.5:
        return f"top-dimension speedup only {last_ratio:.2f}x (< 1.5x floor)"
    return ""


def _fig6_declines_and_saturates(table: Table) -> str:
    totals = table.column("total_s")
    if totals[0] <= totals[-1]:
        return f"no total speedup: {totals[0]:.1f} -> {totals[-1]:.1f}"
    mid = len(totals) // 2
    head_gain = totals[0] - totals[mid]
    tail_gain = totals[mid] - totals[-1]
    if head_gain < tail_gain:
        return (
            f"curve does not saturate: head gain {head_gain:.1f} "
            f"< tail gain {tail_gain:.1f}"
        )
    return ""


def _fig7_ordering_at_top_dim(table: Table) -> str:
    angle = table.column("MR-Angle")[-1]
    grid = table.column("MR-Grid")[-1]
    dim = table.column("MR-Dim")[-1]
    if not (angle > grid > dim):
        return (
            f"top-dimension optimality ordering broken: "
            f"angle={angle:.3f} grid={grid:.3f} dim={dim:.3f}"
        )
    return ""


def _fig7_dim_lowest(table: Table) -> str:
    dim = table.column("MR-Dim")
    for other in ("MR-Grid", "MR-Angle"):
        for d, o, m in zip(table.column("dimension"), table.column(other), dim):
            if o < m:
                return f"{other} optimality below MR-Dim at d={d}: {o:.3f} vs {m:.3f}"
    return ""


def _fig7_angle_rises(table: Table) -> str:
    angle = table.column("MR-Angle")
    if angle[-1] <= angle[0]:
        return (
            f"MR-Angle optimality does not rise with dimension: "
            f"{angle[0]:.3f} -> {angle[-1]:.3f}"
        )
    return ""


def _fig7_eq_width_beats_grid(table: Table) -> str:
    eq = table.column("MR-Angle(eq-width)")[-1]
    grid = table.column("MR-Grid")[-1]
    if eq <= grid:
        return f"equal-width optimality {eq:.3f} <= MR-Grid {grid:.3f} at the top dimension"
    return ""


def _fig7_eq_width_magnitude(table: Table) -> str:
    eq = max(table.column("MR-Angle(eq-width)"))
    if not 0.45 <= eq <= 0.9:
        return f"equal-width optimality max {eq:.3f} outside the paper band"
    return ""


def _theory_bound_holds(table: Table) -> str:
    if not all(table.column("bound_holds")):
        return "Theorem 2 bound violated at some probe"
    for x, closed, mc in zip(
        table.column("x"), table.column("D_angle_eq3"), table.column("D_angle_mc")
    ):
        if abs(closed - mc) > 0.02:
            return f"Monte-Carlo diverges from Eq. 3 at x={x}: {closed} vs {mc}"
    return ""


def reproduction_checks(
    *,
    quick: bool = False,
    cluster: ClusterSpec = DEFAULT_CLUSTER,
    cache: DatasetCache | None = None,
) -> List[ShapeCheck]:
    """The gate's check suite.

    ``quick`` shrinks cardinalities ~10× (useful in CI); the claims are the
    same.  Each table is built once per suite, on first use, so checks that
    read one table judge the same run.
    """
    cache = cache or default_cache()
    small = 1_000
    large = 10_000 if quick else 100_000
    dims: Sequence[int] = (2, 6, 10)
    # The gate always measures on the serial executor, whatever
    # $REPRO_EXECUTOR says: its timing-shape claims feed on clean inline
    # per-task seconds, which pool executors pollute with pickle/IPC
    # overhead (noisy on loaded CI runners).
    executor = "serial"

    @functools.cache
    def fig5b() -> Table:
        return figure5(
            large, dims=dims, cluster=cluster, cache=cache, executor=executor
        )

    @functools.cache
    def fig6() -> Table:
        return figure6(
            n=large,
            d=dims[-1],
            node_counts=(4, 8, 16, 32),
            base_cluster=cluster,
            cache=cache,
            include_tree_merge=False,
            executor=executor,
        )

    @functools.cache
    def fig7a() -> Table:
        return figure7(
            small, dims=dims, cluster=cluster, cache=cache, executor=executor
        )

    @functools.cache
    def fig7b() -> Table:
        return figure7(
            large, dims=dims, cluster=cluster, cache=cache, executor=executor
        )

    @functools.cache
    def thy() -> Table:
        return theory(mc_samples=50_000 if quick else 200_000)

    return [
        ShapeCheck(
            name="fig5b-angle-fastest",
            claim="MR-Angle is the fastest method at every dimension (N large)",
            predicate=_angle_fastest,
            table_fn=fig5b,
        ),
        ShapeCheck(
            name="fig5b-gap-grows",
            claim="the MR-Angle advantage grows with dimension, >= 1.5x at the top",
            predicate=_angle_gap_grows,
            table_fn=fig5b,
        ),
        ShapeCheck(
            name="fig6-saturating-speedup",
            claim="total time declines with servers and saturates",
            predicate=_fig6_declines_and_saturates,
            table_fn=fig6,
        ),
        ShapeCheck(
            name="fig7b-ordering",
            claim="optimality ordering Angle > Grid > Dim at the top dimension",
            predicate=_fig7_ordering_at_top_dim,
            table_fn=fig7b,
        ),
        ShapeCheck(
            name="fig7a-eq-width-magnitude",
            claim="equal-width sectors reach the paper's ~0.6 optimality",
            predicate=_fig7_eq_width_magnitude,
            table_fn=fig7a,
        ),
        ShapeCheck(
            name="fig7a-dim-lowest",
            claim="MR-Dim has the lowest optimality at every dimension (N small)",
            predicate=_fig7_dim_lowest,
            table_fn=fig7a,
        ),
        ShapeCheck(
            name="fig7b-angle-rises",
            claim="MR-Angle optimality is higher at the top dimension than at the lowest",
            predicate=_fig7_angle_rises,
            table_fn=fig7b,
        ),
        ShapeCheck(
            name="fig7b-eq-width-beats-grid",
            claim="equal-width MR-Angle beats MR-Grid on optimality at the top dimension",
            predicate=_fig7_eq_width_beats_grid,
            table_fn=fig7b,
        ),
        ShapeCheck(
            name="theory-eq3-eq4",
            claim="Eq. 3 matches Monte-Carlo and the Eq. 4 bound holds",
            predicate=_theory_bound_holds,
            table_fn=thy,
        ),
    ]


def verify_all(
    *,
    quick: bool = False,
    cluster: ClusterSpec = DEFAULT_CLUSTER,
    cache: DatasetCache | None = None,
) -> List[CheckResult]:
    """Run every shape check; returns results in declaration order."""
    return [
        check.run()
        for check in reproduction_checks(quick=quick, cluster=cluster, cache=cache)
    ]
