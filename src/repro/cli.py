"""Command-line front end: regenerate any table/figure of the paper.

Usage::

    python -m repro.cli fig5a            # Figure 5(a): time vs dim, N=1,000
    python -m repro.cli fig5b            # Figure 5(b): time vs dim, N=100,000
    python -m repro.cli fig6             # Figure 6: map/reduce vs servers
    python -m repro.cli fig7a / fig7b    # Figure 7: optimality vs dim
    python -m repro.cli headline         # §V-B speedup claims
    python -m repro.cli theory           # §IV dominance-ability check
    python -m repro.cli ablations        # design-choice studies
    python -m repro.cli all              # everything above, in order
    python -m repro.cli trace FILE       # summarize a JSONL trace file
    python -m repro.cli lint [PATHS]     # static contract checker (see
                                         # docs/static_analysis.md)
    python -m repro.cli serve            # online query service (JSON lines
                                         # on stdio or --tcp; docs/serving.md)
    python -m repro.cli serve --cluster 3   # sharded: coordinator + 3
                                         # in-process shard servers
    python -m repro.cli coordinator --shard H:P --shard H:P
                                         # coordinator over external shards
                                         # (docs/cluster.md)
    python -m repro.cli top --tcp H:P    # live terminal dashboard polling a
                                         # running server (--once for one frame)

    --quick     scale cardinalities down ~10x for a fast sanity pass
    --markdown  emit Markdown instead of ASCII (for EXPERIMENTS.md)
    --csv       emit CSV
    --trace F   write a JSON-lines execution trace to F (see docs/observability.md)
    --executor  engine backend for the runs: serial (default; the
                measurement path), threads, or processes
    --workers   pool size for the thread/process executors
    --kernel    dominance backend: scalar (default; the reference) or
                block (columnar + filter pruning; see docs/kernels.md);
                `serve` and `coordinator` default to block instead
    --faults F  inject deterministic faults from a FaultPlan JSON file
                (chaos mode; see docs/fault_tolerance.md)

The installed console script ``repro-skyline`` is equivalent.
"""

from __future__ import annotations

import argparse
import atexit
import os
import signal
import sys
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Sequence

if TYPE_CHECKING:  # pragma: no cover - the experiments import repro.bench lazily
    from repro.bench import Table

__all__ = ["main", "build_parser"]

# Paper-scale cardinalities and their --quick counterparts.
_SMALL_N, _LARGE_N = 1_000, 100_000
_QUICK_SMALL_N, _QUICK_LARGE_N = 500, 10_000
_QUICK_NODES = (2, 4, 8)


def _experiments(
    quick: bool, *, executor: str | None = None
) -> Dict[str, Callable[[], Table]]:
    from repro.bench import (
        ablations,
        figure5,
        figure6,
        figure7,
        headline,
        stragglers,
        theory,
    )

    small = _QUICK_SMALL_N if quick else _SMALL_N
    large = _QUICK_LARGE_N if quick else _LARGE_N
    dims = (2, 4, 6) if quick else (2, 4, 6, 8, 10)
    fig6_kwargs = (
        {"n": large, "d": dims[-1], "node_counts": _QUICK_NODES} if quick else {}
    )
    # Engine backend, forwarded to the experiments that run the MapReduce
    # pipeline (theory/ablations/stragglers stay on their own defaults:
    # theory runs no engine jobs; the others keep the process-default
    # executor).
    engine = {"executor": executor}
    return {
        "fig5a": lambda: figure5(small, dims=dims, **engine),
        "fig5b": lambda: figure5(large, dims=dims, **engine),
        "fig6": lambda: figure6(**fig6_kwargs, **engine),
        "fig7a": lambda: figure7(small, dims=dims, **engine),
        "fig7b": lambda: figure7(large, dims=dims, **engine),
        "headline": lambda: headline(n=large, d=dims[-1], **engine),
        "theory": lambda: theory(mc_samples=50_000 if quick else 200_000),
        "ablations": lambda: ablations(n=small if quick else 10_000),
        "stragglers": lambda: stragglers(n=small if quick else 20_000),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-skyline",
        description=(
            "Regenerate the tables/figures of 'MapReduce Skyline Query "
            "Processing with a New Angular Partitioning Approach' "
            "(IPDPSW 2012)"
        ),
    )
    parser.add_argument(
        "experiment",
        choices=list(_experiments(False)) + ["all", "verify"],
        help="which table/figure to regenerate ('verify' runs the "
        "reproduction gate)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="scaled-down cardinalities for a fast sanity pass",
    )
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--markdown", action="store_true", help="Markdown output")
    fmt.add_argument("--csv", action="store_true", help="CSV output")
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="also append the rendered tables to FILE",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="append an ASCII chart after each table (figures 5/6/7)",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="write a JSON-lines execution trace (spans + metrics snapshot) "
        "to FILE; inspect it with 'python -m repro.cli trace FILE'",
    )
    parser.add_argument(
        "--executor",
        choices=["serial", "threads", "processes"],
        default=None,
        help="engine backend for the pipeline runs (default: $REPRO_EXECUTOR "
        "or serial — the clean-timing measurement path)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="pool size for --executor threads/processes (default: CPU count)",
    )
    parser.add_argument(
        "--kernel",
        choices=["scalar", "block"],
        default=None,
        help="dominance backend for every algorithm of the run (default: "
        "$REPRO_KERNEL or scalar — the reference path; block enables the "
        "columnar kernels + filter pruning, results are identical)",
    )
    parser.add_argument(
        "--faults",
        metavar="PLAN.json",
        help="inject deterministic faults from a FaultPlan JSON file into "
        "every engine job of the run (chaos mode; schema in "
        "docs/fault_tolerance.md) — results must be identical anyway",
    )
    return parser


def _render(table: Table, args: argparse.Namespace) -> str:
    if args.markdown:
        return table.to_markdown()
    if args.csv:
        return table.to_csv()
    text = table.render()
    if args.chart:
        chart = _chart_for(table)
        if chart:
            text += "\n" + chart
    return text


def _chart_for(table: Table) -> str:
    """Best-effort ASCII chart matching the table's figure shape."""
    from repro.bench.charts import line_chart, stacked_bars

    if table.columns[:1] == ["dimension"]:
        series = {
            name: table.column(name)
            for name in table.columns[1:]
            if all(isinstance(v, (int, float)) for v in table.column(name))
        }
        return line_chart(
            table.column("dimension"),
            series,
            title=table.title,
            y_label="seconds" if "time" in table.title else "optimality",
        )
    if table.columns[:3] == ["servers", "map_time_s", "reduce_time_s"]:
        return stacked_bars(
            table.column("servers"),
            {
                "map": table.column("map_time_s"),
                "reduce": table.column("reduce_time_s"),
            },
            title=table.title,
        )
    return ""


def _run_verify(args: argparse.Namespace) -> int:
    from repro.bench.expectations import verify_all

    results = verify_all(quick=args.quick)
    width = max(len(r.name) for r in results)
    lines = ["== reproduction gate =="]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.name:<{width}}  {r.detail}")
    failed = sum(1 for r in results if not r.passed)
    lines.append(
        f"{len(results) - failed}/{len(results)} shape checks passed"
    )
    text = "\n".join(lines)
    print(text)
    if args.output:
        with open(args.output, "a") as fh:
            fh.write(text + "\n")
    return 1 if failed else 0


def _run_trace(argv: List[str]) -> int:
    """``repro trace FILE`` — render a per-phase summary + span tree."""
    parser = argparse.ArgumentParser(
        prog="repro-skyline trace",
        description="Summarize a JSON-lines execution trace produced by --trace",
    )
    parser.add_argument("trace_file", help="JSONL trace file to analyse")
    parser.add_argument(
        "--tasks",
        type=int,
        default=8,
        metavar="N",
        help="task spans shown per phase in the tree (longest first; default 8)",
    )
    args = parser.parse_args(argv)

    from repro.observability.report import (
        TraceError,
        load_trace,
        render_summary,
        render_tree,
    )

    try:
        spans, snapshot = load_trace(args.trace_file)
    except TraceError as exc:
        print(f"trace: {args.trace_file}: {exc}", file=sys.stderr)
        return 1
    print(f"== trace: {args.trace_file} ==")
    print(render_summary(spans, snapshot))
    print()
    print(render_tree(spans, max_tasks_per_phase=args.tasks))
    return 0


def _run_lint(argv: List[str]) -> int:
    """``repro lint [paths]`` — the static contract checker.

    Exit status: 0 clean, 1 findings, 2 usage errors.
    """
    parser = argparse.ArgumentParser(
        prog="repro-skyline lint",
        description=(
            "AST-based contract checker: UDF purity, pickle-safety, lock "
            "discipline, exception hygiene (docs/static_analysis.md)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to check (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="report format (json is the CI artifact format; sarif is "
        "SARIF 2.1.0 for code-scanning uploads)",
    )
    parser.add_argument(
        "--changed-only",
        action="store_true",
        help="lint only python files changed relative to --base "
        "(git diff plus untracked files), intersected with the paths",
    )
    parser.add_argument(
        "--base",
        default="HEAD",
        metavar="REF",
        help="git ref --changed-only diffs against (default: HEAD)",
    )
    parser.add_argument(
        "--rules",
        metavar="ID[,ID...]",
        help="run only these rule ids (default: every registered rule)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="filter out findings recorded in this baseline file",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="record current findings as a baseline and exit 0",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    args = parser.parse_args(argv)

    from repro.analysis import (
        BaselineError,
        all_rules,
        changed_python_files,
        render_json,
        render_sarif,
        render_text,
        run_lint,
        write_baseline,
    )

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id:<20} {rule.severity.value:<8} "
                  f"{type(rule).description()}")
        return 0

    rule_ids = None
    if args.rules:
        rule_ids = [part.strip() for part in args.rules.split(",") if part.strip()]
    paths = list(args.paths)
    if args.changed_only:
        try:
            changed = changed_python_files(args.base)
        except ValueError as exc:
            print(f"lint: {exc}", file=sys.stderr)
            return 2
        requested = [os.path.abspath(p) for p in paths]
        paths = [
            f
            for f in changed
            if any(
                f == p or f.startswith(p.rstrip(os.sep) + os.sep)
                for p in requested
            )
        ]
        if not paths:
            print(f"lint: no python files changed vs {args.base}")
            return 0
    try:
        result = run_lint(
            paths, rule_ids=rule_ids, baseline_path=args.baseline
        )
    except (ValueError, BaselineError) as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        count = write_baseline(args.write_baseline, result.findings)
        print(f"lint: wrote {count} fingerprint(s) to {args.write_baseline}")
        return 0
    root = os.getcwd()
    if args.format == "json":
        print(render_json(result, root=root))
    elif args.format == "sarif":
        print(render_sarif(result, root=root))
    else:
        print(render_text(result, root=root))
    return result.exit_code


def _run_serve(argv: List[str]) -> int:
    """``repro serve`` — the online skyline query service (docs/serving.md)."""
    parser = argparse.ArgumentParser(
        prog="repro-skyline serve",
        description=(
            "Long-running skyline query service: JSON-lines protocol on "
            "stdio (default) or a TCP socket (--tcp HOST:PORT)"
        ),
    )
    parser.add_argument(
        "--tcp",
        metavar="HOST:PORT",
        help="listen on a TCP socket instead of stdio (PORT 0 = pick free)",
    )
    parser.add_argument(
        "--cluster", type=int, default=None, metavar="N",
        help="sharded mode: boot N in-process shard servers on loopback "
        "ports behind a coordinator front end; the admission, cache, "
        "deadline, stale and SLO flags configure the coordinator and every "
        "shard (docs/cluster.md)",
    )
    parser.add_argument(
        "--shard-timeout-s", type=float, default=5.0, metavar="S",
        help="per-shard RPC budget in --cluster mode (default 5.0)",
    )
    parser.add_argument(
        "--filter-k", type=int, default=None, metavar="K",
        help="filter points broadcast per cluster query (0 disables wire "
        "pruning; default: the library default)",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=8, metavar="N",
        help="concurrent computations admitted at once (default 8)",
    )
    parser.add_argument(
        "--max-queue", type=int, default=16, metavar="N",
        help="requests allowed to wait beyond --max-inflight (default 16)",
    )
    parser.add_argument(
        "--cache-size", type=int, default=256, metavar="N",
        help="versioned result-cache capacity in entries (default 256)",
    )
    parser.add_argument(
        "--deadline-s", type=float, default=None, metavar="S",
        help="default per-query deadline in seconds (default: none)",
    )
    parser.add_argument(
        "--no-stale",
        action="store_true",
        help="reject shed requests (and, in --cluster mode, queries whose "
        "every shard is lost) outright instead of serving a stale cached "
        "answer flagged degraded=True",
    )
    parser.add_argument(
        "--kernel",
        choices=["scalar", "block"],
        default=None,
        help="dominance backend for every dataset and query (default: "
        "$REPRO_KERNEL or block; scalar is the point-at-a-time reference, "
        "answers are identical)",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="write serve-path spans + metrics to FILE as JSON lines",
    )
    parser.add_argument(
        "--events",
        metavar="FILE",
        help="dump the structured event log to FILE as JSON lines on exit "
        "(the CI smoke artifact; see docs/observability.md)",
    )
    parser.add_argument(
        "--slo-latency-s", type=float, default=0.25, metavar="S",
        help="latency SLO threshold in seconds (default 0.25)",
    )
    parser.add_argument(
        "--slo-latency-target", type=float, default=0.95, metavar="F",
        help="fraction of requests that must beat --slo-latency-s "
        "(default 0.95)",
    )
    parser.add_argument(
        "--slo-availability-target", type=float, default=0.999, metavar="F",
        help="fraction of requests that must be answered at all "
        "(default 0.999)",
    )
    parser.add_argument(
        "--data-dir",
        metavar="DIR",
        help="durable serving state: write-ahead log + snapshots under DIR, "
        "with recovery on startup (docs/serving.md); in --cluster mode "
        "each shard persists under DIR/shard-NN",
    )
    parser.add_argument(
        "--fsync",
        choices=["always", "interval", "never"],
        default="interval",
        help="WAL fsync policy with --data-dir (default interval: fsync "
        "every few appends; always = fsync per mutation; never = OS flush "
        "only)",
    )
    parser.add_argument(
        "--snapshot-every", type=int, default=256, metavar="N",
        help="checkpoint (snapshot + WAL truncate) every N mutations per "
        "dataset with --data-dir (default 256)",
    )
    args = parser.parse_args(argv)
    args.kernel = _serving_kernel(args.kernel)

    from repro.serving.service import LocalBackend, ServeConfig, SkylineService

    config = ServeConfig(
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        cache_entries=args.cache_size,
        default_deadline_s=args.deadline_s,
        stale_on_overload=not args.no_stale,
        kernel=args.kernel,
        slo_latency_threshold_s=args.slo_latency_s,
        slo_latency_target=args.slo_latency_target,
        slo_availability_target=args.slo_availability_target,
    )
    try:
        config.validate()
        if args.cluster is not None and args.cluster < 1:
            raise ValueError(f"--cluster must be >= 1, got {args.cluster}")
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        from repro.observability import enable_tracing

        try:
            enable_tracing(args.trace)
        except OSError as exc:
            print(f"--trace: cannot write {args.trace}: {exc}", file=sys.stderr)
            return 1

    if args.cluster is not None:
        from repro.serving.cluster import LocalCluster, ShardedBackend

        fleet = LocalCluster(
            args.cluster,
            config=config,
            data_dir=args.data_dir,
            fsync=args.fsync,
            snapshot_every=args.snapshot_every,
        )
        try:
            sharded = ShardedBackend(
                fleet.addresses(),
                filter_k=_filter_k(args),
                shard_timeout_s=args.shard_timeout_s,
            )
        except ValueError as exc:
            fleet.close()
            print(f"serve: {exc}", file=sys.stderr)
            return 2
        service = SkylineService(config, backend=sharded)
        return _serve_until_stopped(
            service, args, f"serving {args.cluster}-shard cluster", "serve",
            closers=(service.close, fleet.close),
        )
    durability = None
    if args.data_dir:
        from repro.serving.durability import DurabilityConfig, DurabilityManager

        try:
            durability = DurabilityManager(
                DurabilityConfig(
                    args.data_dir,
                    fsync=args.fsync,
                    snapshot_every=args.snapshot_every,
                )
            )
        except (OSError, ValueError) as exc:
            print(f"--data-dir: {exc}", file=sys.stderr)
            return 2
    backend = LocalBackend(durability=durability)
    service = SkylineService(config, backend=backend)
    for report in backend.recover_datasets():
        print(
            f"recovered dataset {report.dataset!r}: "
            f"{report.members} member(s) at generation "
            f"{report.generation} "
            f"({report.records_replayed} WAL record(s) replayed"
            f"{', torn tail dropped' if report.torn_tail else ''})",
            file=sys.stderr,
        )
    return _serve_until_stopped(
        service, args, "serving", "serve", durability=durability
    )


def _filter_k(args: argparse.Namespace) -> int:
    """``--filter-k``, else the library's filter-set size."""
    from repro.core.filtering import DEFAULT_FILTER_K

    return DEFAULT_FILTER_K if args.filter_k is None else args.filter_k


def _serving_kernel(flag: str | None) -> str:
    """The servers' kernel: ``--kernel``, else ``$REPRO_KERNEL``, else
    ``block`` — the experiments keep ``scalar``, whose dominance-test
    counts are their metric."""
    from repro.core.kernels import default_kernel_name

    return flag or default_kernel_name(fallback="block")


def _install_exit_signal_handlers() -> None:
    """SIGINT/SIGTERM -> ``SystemExit(128 + sig)`` so ``finally`` blocks
    (events dump, WAL flush, server stop) run on signal-driven exits too.

    A no-op off the main thread (``signal.signal`` raises there), which
    keeps the helpers safe to call from embedded/test contexts.
    """

    def _exit(signum: int, frame: object) -> None:
        raise SystemExit(128 + signum)

    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(sig, _exit)
        except ValueError:  # pragma: no cover - non-main thread
            pass


def _serve_until_stopped(
    service: Any,
    args: argparse.Namespace,
    banner: str,
    prog: str,
    *,
    durability: Any = None,
    closers: Sequence[Callable[[], None]] = (),
) -> int:
    """The one serve body of ``serve``, ``serve --cluster`` and
    ``coordinator``: a TCP server announced as ``<banner> on HOST:PORT``
    (``--tcp``) or one stdio session, then the same teardown on every exit.

    Signal-driven exits (SIGINT/SIGTERM) must run the same teardown a
    clean shutdown op does — dump --events, flush WALs, stop the server —
    so the handlers convert the signal into a SystemExit that unwinds
    through the ``finally`` below; ``atexit`` is the belt-and-braces
    fallback for exits that bypass it.
    """
    from repro.serving.server import make_tcp_server, serve_stdio

    _install_exit_signal_handlers()
    cleanup = _ServeCleanup(args, durability, closers)
    atexit.register(cleanup.run)
    try:
        if args.tcp:
            host, _, port = args.tcp.rpartition(":")
            try:
                server = make_tcp_server(service, host or "127.0.0.1", int(port))
            except (OSError, ValueError) as exc:
                print(f"{prog}: cannot bind {args.tcp}: {exc}", file=sys.stderr)
                return 2
            bound = server.server_address
            print(f"{banner} on {bound[0]}:{bound[1]}", file=sys.stderr)
            cleanup.server = server
            with server:
                server.serve_forever()
        else:
            serve_stdio(service)
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    finally:
        teardown = cleanup.run()
        atexit.unregister(cleanup.run)
    return teardown


class _ServeCleanup:
    """Idempotent serve teardown: runs from the ``finally`` path on every
    exit (clean shutdown op, signal-driven SystemExit, KeyboardInterrupt)
    and is registered with ``atexit`` as a fallback.

    Order matters: stop the server first (bounded join of live sessions,
    so no WAL append is cut mid-frame), then release the backend (shard
    connections, an in-process fleet), then flush + close the WALs, then
    write the observability artifacts.
    """

    def __init__(
        self,
        args: argparse.Namespace,
        durability: Any,
        closers: Sequence[Callable[[], None]],
    ) -> None:
        self.trace = getattr(args, "trace", None)
        self.events = getattr(args, "events", None)
        self.durability = durability
        self.closers = closers
        self.server: Any = None
        self._done = False

    def run(self) -> int:
        if self._done:
            return 0
        self._done = True
        code = 0
        if self.server is not None:
            try:
                self.server.stop()
            # Teardown must reach the WAL flush below even if stop()
            # fails; the error is reported, not swallowed.
            except Exception as exc:  # repro: allow[exception-hygiene]
                print(f"serve: stop failed: {exc}", file=sys.stderr)
        for close in self.closers:
            close()
        if self.durability is not None:
            try:
                self.durability.sync()
                self.durability.close()
            except OSError as exc:
                print(f"--data-dir: WAL flush failed: {exc}", file=sys.stderr)
                code = 1
        if self.trace:
            from repro.observability import disable_tracing

            disable_tracing(write_metrics=True)
        if self.events:
            from repro.observability import get_events

            try:
                count = get_events().dump(self.events)
                print(
                    f"wrote {count} event(s) to {self.events}",
                    file=sys.stderr,
                )
            except OSError as exc:
                print(f"--events: cannot write {self.events}: {exc}",
                      file=sys.stderr)
                code = 1
        return code


def _run_coordinator(argv: List[str]) -> int:
    """``repro coordinator`` — fan-out front end over external shards."""
    parser = argparse.ArgumentParser(
        prog="repro-skyline coordinator",
        description=(
            "Cluster coordinator over already-running `repro serve --tcp` "
            "shard servers: the serving front end over a sharded backend, "
            "JSON-lines protocol on stdio (default) or a TCP socket "
            "(docs/cluster.md)"
        ),
    )
    parser.add_argument(
        "--shard",
        action="append",
        required=True,
        metavar="HOST:PORT",
        dest="shards",
        help="address of one shard server (repeat once per shard)",
    )
    parser.add_argument(
        "--tcp",
        metavar="HOST:PORT",
        help="listen on a TCP socket instead of stdio (PORT 0 = pick free)",
    )
    parser.add_argument(
        "--kernel",
        choices=["scalar", "block"],
        default=None,
        help="dominance backend for merges and filter selection "
        "(default: $REPRO_KERNEL or block)",
    )
    parser.add_argument(
        "--filter-k", type=int, default=None, metavar="K",
        help="filter points broadcast per query (0 disables wire pruning; "
        "default: the library default)",
    )
    parser.add_argument(
        "--shard-timeout-s", type=float, default=5.0, metavar="S",
        help="per-shard RPC budget in seconds (default 5.0)",
    )
    parser.add_argument(
        "--connect-timeout-s", type=float, default=5.0, metavar="S",
        help="TCP connect budget per shard in seconds (default 5.0)",
    )
    parser.add_argument(
        "--cache-size", type=int, default=256, metavar="N",
        help="cluster result-cache capacity in entries (default 256)",
    )
    parser.add_argument(
        "--deadline-s", type=float, default=None, metavar="S",
        help="default per-query deadline in seconds (default: none)",
    )
    args = parser.parse_args(argv)

    from repro.serving.cluster import ShardedBackend
    from repro.serving.service import ServeConfig, SkylineService

    try:
        config = ServeConfig(
            kernel=_serving_kernel(args.kernel),
            cache_entries=args.cache_size,
            default_deadline_s=args.deadline_s,
        )
        config.validate()
        backend = ShardedBackend(
            args.shards,
            filter_k=_filter_k(args),
            shard_timeout_s=args.shard_timeout_s,
            connect_timeout_s=args.connect_timeout_s,
        )
    except ValueError as exc:
        print(f"coordinator: {exc}", file=sys.stderr)
        return 2
    service = SkylineService(config, backend=backend)
    return _serve_until_stopped(
        service, args, f"coordinating {len(args.shards)} shard(s)",
        "coordinator", closers=(service.close,),
    )


def _run_top(argv: List[str]) -> int:
    """``repro top`` — live dashboard over the telemetry verbs."""
    parser = argparse.ArgumentParser(
        prog="repro-skyline top",
        description=(
            "Refreshing terminal dashboard for a running `repro serve --tcp` "
            "process: QPS, admission/cache state, latency quantiles, "
            "per-dataset generations, partition skew, SLO burn, events"
        ),
    )
    parser.add_argument(
        "--tcp",
        required=True,
        metavar="HOST:PORT",
        help="address of the running `repro serve --tcp` server",
    )
    parser.add_argument(
        "--interval", type=float, default=2.0, metavar="S",
        help="seconds between polls (default 2.0)",
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit (scripting / CI mode)",
    )
    parser.add_argument(
        "--count", type=int, default=None, metavar="N",
        help="exit after N frames (frames append instead of repainting)",
    )
    parser.add_argument(
        "--events", type=int, default=8, metavar="N",
        help="event-log tail length shown per frame (default 8)",
    )
    args = parser.parse_args(argv)
    host, _, port = args.tcp.rpartition(":")
    try:
        port_num = int(port)
    except ValueError:
        print(f"top: bad --tcp address {args.tcp!r}", file=sys.stderr)
        return 2
    if args.interval <= 0:
        print(f"top: --interval must be > 0, got {args.interval}", file=sys.stderr)
        return 2

    from repro.serving.top import run_top

    return run_top(
        host or "127.0.0.1",
        port_num,
        interval_s=args.interval,
        once=args.once,
        count=args.count,
        event_tail=args.events,
    )


def main(argv: List[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Opt-in runtime lock-order sanitizer (REPRO_SANITIZE=locks) must be
    # installed before any command constructs serving/executor state; a
    # run without the variable does not load it.
    if os.environ.get("REPRO_SANITIZE"):
        from repro.observability.sanitizer import install_from_env

        install_from_env()
    # 'trace', 'lint', 'serve', 'coordinator' and 'top' are not
    # experiments, so they take their own options and dispatch before the
    # experiment parser.
    if argv[:1] == ["trace"]:
        return _run_trace(argv[1:])
    if argv[:1] == ["lint"]:
        return _run_lint(argv[1:])
    if argv[:1] == ["serve"]:
        return _run_serve(argv[1:])
    if argv[:1] == ["coordinator"]:
        return _run_coordinator(argv[1:])
    if argv[:1] == ["top"]:
        return _run_top(argv[1:])
    args = build_parser().parse_args(argv)
    if args.experiment == "verify":
        return _run_verify(args)
    executor = args.executor
    if args.workers is not None:
        if args.workers <= 0:
            print(f"--workers must be >= 1, got {args.workers}", file=sys.stderr)
            return 2
        # A sized executor instance: make_executor passes it through, and the
        # lazy pools re-create themselves across experiments after each
        # pipeline releases them.
        from repro.mapreduce.executors import make_executor

        executor = make_executor(args.executor, num_workers=args.workers)
    registry = _experiments(args.quick, executor=executor)
    names = list(registry) if args.experiment == "all" else [args.experiment]
    previous_kernel = None
    if args.kernel:
        # Same pattern as --faults: the experiments build their own
        # algorithm calls layers below the CLI, so the flag installs the
        # process-default kernel the way $REPRO_KERNEL would.
        from repro.core.kernels import set_default_kernel

        previous_kernel = set_default_kernel(args.kernel)
    previous_plan = None
    if args.faults:
        # Install the plan process-wide: every Runner the experiments build
        # (they construct their own, layers below the CLI) picks it up, the
        # same way $REPRO_EXECUTOR reaches the default executor choice.
        from repro.mapreduce.faults import FaultPlan, set_default_fault_plan

        try:
            plan = FaultPlan.load(args.faults)
        except (OSError, ValueError) as exc:
            print(f"--faults: cannot load {args.faults}: {exc}", file=sys.stderr)
            return 2
        previous_plan = set_default_fault_plan(plan)
    if args.trace:
        from repro.observability import disable_tracing, enable_tracing

        try:
            enable_tracing(args.trace)
        except OSError as exc:
            print(f"--trace: cannot write {args.trace}: {exc}", file=sys.stderr)
            return 1
    rendered = []
    try:
        for name in names:
            table = registry[name]()
            text = _render(table, args)
            rendered.append(text)
            print(text)
    finally:
        # Close the trace even on failure: spans export as they finish, so a
        # crashed run still leaves a usable partial trace plus the metrics
        # collected so far.
        if args.trace:
            disable_tracing(write_metrics=True)
        if args.kernel:
            from repro.core.kernels import set_default_kernel

            set_default_kernel(previous_kernel)
        if args.faults:
            from repro.mapreduce.faults import set_default_fault_plan

            set_default_fault_plan(previous_plan)
    if args.output:
        with open(args.output, "a") as fh:
            fh.write("\n".join(rendered) + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `repro trace f | head`
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
