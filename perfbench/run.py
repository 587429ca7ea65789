"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric (the result line carries the
ones ``BENCHMARK.json`` bounds); ``--trace 1`` runs the
workload untraced and then traced, and prints every per-layer metric plus
the traced run's own end-to-end numbers and their ratio to the untraced
ones.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the human-readable report and an environment fingerprint.  A
correctness mismatch prints no numbers and exits 1; a generator-bound run
is not a measurement and exits 3.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text()) \
    if (ROOT / "BENCHMARK.json").exists() else None


def _fingerprint(seed: int) -> dict:
    import numpy

    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            commit = ref_path.read_text().strip() if ref_path.exists() else ref
        else:
            commit = ref
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit,
        "seed": seed,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").exists() or BENCHMARK is None:
        print(f"perfbench: no program to measure under {ROOT} "
              "(expected src/repro and BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]  # measure the defaults, whatever the caller exported

    from perfbench.layers import TRACED_E2E, metric_specs
    from perfbench.spawn import pin_benchmark_core
    from perfbench.workloads import E2E_UNITS, WORKLOADS, Context, traced_engine

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    run_dir = ROOT / ".perfbench_runs" / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    ctx = Context(ROOT, run_dir, args.workload, args.seed, args.seconds,
                  pin_benchmark_core())
    workload = WORKLOADS[args.workload]
    try:
        untraced = workload(ctx)
        runs = [untraced]
        if args.trace:
            runs.append(workload(ctx, traced_engine()))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    bounded = [m["name"] for m in BENCHMARK["end_to_end"]]
    if args.trace:
        traced = runs[1]
        values = {name: 0.0 for name, _, _ in metric_specs()}
        values.update(traced.layers)
        for name, _, _ in TRACED_E2E:
            values[f"traced.{name}"] = traced.metrics[name]
            values[f"overhead.{name}"] = traced.metrics[name] / untraced.metrics[name]
        units = {name: unit for name, unit, _ in metric_specs()}
        shown = values
    else:
        units = E2E_UNITS
        shown = {name: untraced.metrics[name] for name in E2E_UNITS}
        values = {name: shown[name] for name in bounded}

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    mismatches = [m for r in runs for m in r.mismatches]
    report = {
        "workload": args.workload,
        "environment": _fingerprint(args.seed),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted if attempted else 0.0,
        "details": [r.details for r in runs],
        "mismatches": mismatches,
        "generator_bound": any(r.generator_bound for r in runs),
    }
    for name, value in shown.items():
        mark = "" if args.trace or name in bounded else "  (reported, not bounded)"
        print(f"{name:40s} {value:16.6f} {units[name]}{mark}")
    print(json.dumps(report, default=str))

    if report["generator_bound"]:
        print("perfbench: send lag grew over the run; generator-bound, not reported",
              file=sys.stderr)
        return 3
    finite = all(math.isfinite(v) for v in shown.values())
    if mismatches or not finite:
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
