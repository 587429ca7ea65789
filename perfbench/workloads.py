"""The four workloads: one batch engine loop and three serving mixes.

Each workload function takes a :class:`Context` and returns a
:class:`Run`: every end-to-end metric, the attempted/failed counts, the
correctness verdict and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import resource
import selectors
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from perfbench import streams
from perfbench.batch_child import digest
from perfbench.layers import engine_layers, serving_layers
from perfbench.loadgen import Outcome, open_loop, windowed
from perfbench.spawn import Client, Server, child_env
from perfbench.stats import median, tail
from perfbench.tracing import Recorder, Span, install_engine

#: Set-ups and restarts per run; the reported figure is their median.
SETUP_REPEATS = 5
RESTARTS = 3
#: Load-generator connections: one per core, at most two.
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
#: Requests outstanding per connection in the throughput phase.
WINDOW = 32
#: Open-loop arrival rates (requests per second).
RATES = {"serve-hot": 1000.0, "serve-mixed": 25.0, "serve-cluster": 25.0}
#: Units of every end-to-end metric a run measures.  BENCHMARK.json bounds
#: the subset that stays steady from run to run on a shared 2-vCPU machine;
#: the report line prints them all.
E2E_UNITS = {"setup_s": "s", "job_s_p50": "s", "job_s_p90": "s", "latency_ms_p50": "ms",
             "latency_ms_p99": "ms", "throughput_qps": "1/s", "restart_s": "s",
             "peak_rss_mb": "MB"}
#: Shares of ``--seconds`` spent in each serving phase.
OPEN_SHARE, WINDOW_SHARE, JOBS_SHARE = 0.45, 0.2, 0.35
#: Slices the serving workloads' job phase is cut into (see :func:`serve`).
JOB_SLICES = 4
#: A run whose send lag grows by more than this (ms, last vs first
#: quarter median) is generator-bound, not a measurement of the server.
LAG_GROWTH_LIMIT_MS = 5.0


@dataclass
class Context:
    root: Path
    run_dir: Path
    workload: str
    seed: int
    seconds: float
    #: Cores for the program's child processes (the benchmark keeps its own).
    child_cores: set


@dataclass
class Run:
    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    mismatches: List[str] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    details: Dict[str, Any] = field(default_factory=dict)
    generator_bound: bool = False

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.mismatches.append(what)


def _percentiles(run: Run, prefix: str, values: Sequence[float], cap: float,
                 scale: float) -> None:
    p50, (tail_v, tail_pct) = median(values), tail(values, cap)
    run.metrics[f"{prefix}_p50"] = p50 * scale
    run.metrics[f"{prefix}_p{int(cap)}"] = tail_v * scale
    run.details[f"{prefix}_p{int(cap)}"] = {"percentile": round(tail_pct, 2), "n": len(values)}


# -- the MapReduce job loop (batch-qws, and job_s on the serving workloads) ------


def _job_stats(result: Any, n: int, rid: int, wall_s: float) -> Dict[str, Any]:
    """The engine's own accounting of one job, for the per-layer view."""
    from repro.core.optimality import optimality_of_result
    from repro.mapreduce.types import TaskKind

    sizes = np.bincount(result.partition_ids, minlength=result.num_partitions)
    reduce_tasks = result.chain.phase_stats(TaskKind.REDUCE).tasks
    return {
        "rid": rid,
        "wall_s": wall_s,
        "map_busy_s": result.map_busy_s,
        "reduce_busy_s": result.reduce_busy_s,
        "reduce_task_s_max": max(t.duration_s for t in reduce_tasks),
        "max_min_ratio": float(sizes.max() / max(sizes.min(), 1)),
        "pruned_ratio": result.points_pruned / n,
        "dominance_tests": result.dominance_tests,
        "shuffle_bytes": sum(r.shuffle_stats.bytes for r in result.chain.results),
        "optimality": float(optimality_of_result(result).optimality),
    }


#: Jobs a timed loop runs at least, so that ``job_s_p90`` has ten beyond it.
MIN_JOBS = 21


class _JobLoop:
    """Back-to-back ``run_mr_skyline(method="angle", kernel="block")`` jobs.

    A closed loop: each job starts when the previous one ends, so its
    scheduled start is its actual start.  It may run in several slices
    (:meth:`run_for`); :meth:`finish` closes it.  Every job's global skyline
    must equal ``reference`` and every job must count the same dominance
    tests.
    """

    def __init__(self, points: np.ndarray, reference: List[int], run: Run,
                 recorder: Recorder | None):
        self.points, self.reference, self.run, self.recorder = points, reference, run, recorder
        self.walls: List[float] = []
        self.tests: set = set()
        self.jobs: List[Dict[str, Any]] = []

    def run_for(self, seconds: float, min_jobs: int = 0) -> None:
        import repro.core.mr_skyline as mr

        run, recorder = self.run, self.recorder
        stop = time.perf_counter() + seconds
        while time.perf_counter() < stop or len(self.walls) < min_jobs:
            rid = len(self.walls)
            t0 = time.perf_counter()
            if recorder is None:
                result = mr.run_mr_skyline(self.points, method="angle", kernel="block")
            else:
                with recorder.span("job", rid=rid):
                    result = mr.run_mr_skyline(self.points, method="angle", kernel="block")
            wall = time.perf_counter() - t0
            self.walls.append(wall)
            run.attempted += 1
            ok = result.global_indices.tolist() == self.reference
            run.check(ok, f"job {rid}: global skyline differs from the reference")
            run.failed += not ok
            self.tests.add(result.dominance_tests)
            if recorder is not None:
                self.jobs.append(_job_stats(result, self.points.shape[0], rid, wall))

    def finish(self) -> None:
        """Check the dominance counts; set ``job_s_*`` (and the engine layers)."""
        run = self.run
        run.check(len(self.tests) == 1,
                  f"dominance tests varied across jobs: {sorted(self.tests)}")
        _percentiles(run, "job_s", self.walls, 90, 1.0)
        if self.recorder is not None:
            run.layers.update(engine_layers(self.recorder.drain(), self.jobs))


def _reference_skyline(points: np.ndarray) -> List[int]:
    """From-scratch centralised skyline, independent of the MR pipeline."""
    from repro.core.skyline import skyline

    return sorted(int(i) for i in skyline(points, kernel="block"))


def _read_line(proc: subprocess.Popen, deadline: float) -> str:
    """One stdout line of ``proc``, or raise once ``deadline`` passes."""
    assert proc.stdout is not None
    fd = proc.stdout.fileno()
    buf = b""
    with selectors.DefaultSelector() as sel:
        sel.register(fd, selectors.EVENT_READ)
        while b"\n" not in buf:
            if not sel.select(max(deadline - time.perf_counter(), 0.0)):
                raise RuntimeError("batch child produced no result in time")
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError(f"batch child exited with {proc.wait()}")
            buf += chunk
    return buf.split(b"\n", 1)[0].decode()


def _batch_restarts(ctx: Context, points: np.ndarray, reference: List[int],
                    run: Run) -> List[float]:
    """SIGKILL a job-looping process, time a fresh one to its first correct job."""
    path = ctx.run_dir / "batch-input.npy"
    np.save(path, points)
    want = digest(np.asarray(reference))

    def spawn() -> subprocess.Popen:
        proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.batch_child", str(path)],
            cwd=ctx.root, env=child_env(ctx.root), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        os.sched_setaffinity(proc.pid, ctx.child_cores)
        return proc

    times: List[float] = []
    proc = spawn()
    try:
        run.check(_read_line(proc, time.perf_counter() + 120) == want,
                  "batch child: first job differs from the reference")
        for _ in range(RESTARTS):
            killed_at = time.perf_counter()
            proc.kill()
            proc.wait(timeout=30)
            proc.stdout.close()
            proc = spawn()
            answer = _read_line(proc, time.perf_counter() + 120)
            times.append(time.perf_counter() - killed_at)
            run.check(answer == want, "restarted batch job differs from the reference")
    finally:
        proc.kill()
        proc.wait(timeout=30)
        if proc.stdout is not None:
            proc.stdout.close()
    return times


def batch_qws(ctx: Context, recorder: Recorder | None = None) -> Run:
    """batch-qws: closed loop of MR-Angle jobs over QWS 100,000 x 8."""
    import repro.core.mr_skyline as mr

    run = Run()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        points = streams.qws_points(streams.BATCH_N, streams.BATCH_D)
        first = mr.run_mr_skyline(points, method="angle", kernel="block")
        setups.append(time.perf_counter() - t0)
    reference = _reference_skyline(points)
    run.check(first.global_indices.tolist() == reference,
              "set-up job differs from the reference skyline")
    jobs = _JobLoop(points, reference, run, recorder)
    jobs.run_for(ctx.seconds, MIN_JOBS)
    jobs.finish()
    walls = jobs.walls
    _percentiles(run, "latency_ms", walls, 99, 1e3)
    run.metrics["throughput_qps"] = len(walls) / sum(walls)
    run.metrics["setup_s"] = median(setups)
    if recorder is None:
        run.metrics["restart_s"] = median(_batch_restarts(ctx, points, reference, run))
    run.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run.details["skyline_points"] = len(reference)
    run.details["dominance_tests"] = first.dominance_tests
    return run


# -- serving ---------------------------------------------------------------------


@dataclass
class _Serving:
    """What differs between the three serving workloads."""

    points: np.ndarray
    serve_args: List[str]
    register: Dict[str, Any]
    #: Every query kind: the warm-up pass and the post-traffic check.
    specs: List[Dict[str, Any]]
    stream: Any
    block: int
    durable: bool
    cluster: bool


def _serving(ctx: Context) -> _Serving:
    if ctx.workload == "serve-hot":
        points = streams.qws_points(streams.HOT_N, streams.HOT_D)
        specs = streams.hot_specs(points, ctx.seed)
        return _Serving(points, [], {}, [{"kind": "skyline"}, *specs],
                        streams.hot_stream(ctx.seed, specs), streams.HOT_BLOCK,
                        durable=False, cluster=False)
    points = streams.uniform_points(streams.MIXED_N, streams.MIXED_D)
    checks = streams.check_specs(streams.MIXED_D, ctx.seed)
    args = ["--snapshot-every", "64"]
    register: Dict[str, Any] = {}
    cluster = ctx.workload == "serve-cluster"
    if cluster:
        args += ["--cluster", "3"]
        register = {"shard_fn": "angle"}
    stream = streams.mixed_stream(ctx.seed, streams.MIXED_N, streams.MIXED_D)
    return _Serving(points, args, register, checks, stream, streams.MIXED_BLOCK,
                    durable=True, cluster=cluster)


def _generation(response: Dict[str, Any]) -> Any:
    return response.get("generations", response.get("generation"))


def _query(client: Client, spec: Dict[str, Any]) -> Dict[str, Any]:
    return client.call({"op": "query", "dataset": streams.DATASET, **spec})


class _Launch:
    """Spawns servers for one workload run (fresh data dir per set-up)."""

    def __init__(self, ctx: Context, w: _Serving, spans_dir: Path | None):
        self.ctx, self.w, self.spans_dir = ctx, w, spans_dir
        self.count = 0
        self.data_dir: Path | None = None

    def start(self, *, fresh: bool) -> Server:
        self.count += 1
        args = list(self.w.serve_args)
        if self.w.durable:
            if fresh:
                self.data_dir = self.ctx.run_dir / f"data-{self.count}"
            args += ["--data-dir", str(self.data_dir)]
        return Server(self.ctx.root, args, self.ctx.run_dir / f"server-{self.count}.log",
                      cores=self.ctx.child_cores, spans_dir=self.spans_dir)

    def register(self, server: Server, rows: np.ndarray) -> Dict[str, Any]:
        with Client(server.address) as client:
            response = client.call({"op": "register", "dataset": streams.DATASET,
                                    "points": rows.tolist(), **self.w.register})
        if not response.get("ok"):
            raise RuntimeError(f"register failed: {response}")
        return response


def _setup(launch: _Launch, w: _Serving) -> Tuple[Server, float]:
    """Spawn to ready, register, warm-up pass; returns the server and time."""
    t0 = time.perf_counter()
    server = launch.start(fresh=True)
    try:
        launch.register(server, w.points)
        with Client(server.address) as client:
            answers = client.calls([{"op": "query", "dataset": streams.DATASET, **spec}
                                    for spec in w.specs])
        if not all(a.get("ok") for a in answers):
            raise RuntimeError(f"warm-up failed: {answers}")
    except BaseException:
        server.kill()
        raise
    return server, time.perf_counter() - t0


def _classify(run: Run, requests: Sequence[Dict[str, Any]], outcome: Outcome,
              model: streams.Membership) -> List[Dict[str, Any] | None]:
    """Decode responses, count failures, fold acknowledged mutations in.

    Requests never sent (past the end of a throughput window) are not
    attempted; a request sent but unanswered, refused, or answered
    ``degraded`` (stale) is a failure.
    """
    decoded: List[Dict[str, Any] | None] = []
    for i, request in enumerate(requests):
        line = outcome.responses[i]
        if outcome.sent[i] != outcome.sent[i]:  # NaN: never sent
            decoded.append(None)
            continue
        run.attempted += 1
        response = json.loads(line) if line is not None else None
        decoded.append(response)
        if response is None or not response.get("ok") or response.get("degraded"):
            run.failed += 1
            continue
        model.apply(request, response)
    return decoded


def _send_lag_bound(outcome: Outcome) -> Tuple[bool, List[float]]:
    lags = [(s - d) * 1e3 for s, d in zip(outcome.sent, outcome.due)]
    q = max(len(lags) // 4, 1)
    growth = median(lags[-q:]) - median(lags[:q])
    return growth > LAG_GROWTH_LIMIT_MS, lags


def _counters(client: Client) -> Dict[str, float]:
    return dict(client.call({"op": "metrics"})["metrics"]["counters"])


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def _check_answers(run: Run, server: Server, w: _Serving, model: streams.Membership,
                   label: str) -> None:
    with Client(server.address) as client:
        answers = client.calls([{"op": "query", "dataset": streams.DATASET, **spec}
                                for spec in w.specs])
    for spec, answer in zip(w.specs, answers):
        ok = answer.get("ok") and answer.get("ids") == model.expected(spec)
        run.check(bool(ok), f"{label}: {spec} differs from evaluate() over the model")
    if not w.cluster:
        # Register is generation 1; every acknowledged mutation adds one.
        run.check(answers[0].get("generation") == 1 + model.mutations,
                  f"{label}: generation {answers[0].get('generation')} does not "
                  f"count the {model.mutations} acknowledged mutations")


def _restart(launch: _Launch, server: Server, w: _Serving, model: streams.Membership,
             run: Run) -> Tuple[Server, float]:
    """SIGKILL, restart from the same flags, time to the first correct answer.

    A durable single node must answer with the pre-kill ids and generation.
    Without a data directory (serve-hot) nothing survives, and a restarted
    cluster coordinator does not recover its dataset placement even though
    every shard recovers its rows, so both are re-registered by the client
    before the first answer; their answer must equal the reference.
    """
    reload = not w.durable or w.cluster
    if reload:
        rows = model.arrays()[1]
        expected = streams.Membership.of(rows).expected({"kind": "skyline"})
    else:
        with Client(server.address) as client:
            before = _query(client, {"kind": "skyline"})
    killed_at = server.kill()
    server = launch.start(fresh=False)
    try:
        if reload:
            launch.register(server, rows)
        with Client(server.address) as client:
            answer = _query(client, {"kind": "skyline"})
    except BaseException:
        server.kill()
        raise
    elapsed = time.perf_counter() - killed_at
    if reload:
        run.check(answer.get("ok") and answer.get("ids") == expected,
                  "restarted server: skyline differs from the reference")
    else:
        run.check(answer.get("ids") == before.get("ids")
                  and _generation(answer) == _generation(before),
                  f"restarted server: {answer.get('generation')} vs pre-kill "
                  f"{before.get('generation')}")
    return server, elapsed


def _dump_spans(server: Server) -> None:
    with Client(server.address) as client:
        if not client.call({"op": "perfbench.dump_spans"}).get("ok"):
            raise RuntimeError("span dump failed")


def serve(ctx: Context, recorder: Recorder | None = None) -> Run:
    """serve-hot / serve-mixed / serve-cluster against ``repro serve --tcp``."""
    run = Run()
    w = _serving(ctx)
    spans_dir = None
    if recorder is not None:
        spans_dir = ctx.run_dir / "spans"
        spans_dir.mkdir(exist_ok=True)
    launch = _Launch(ctx, w, spans_dir)

    # The batch job over the served rows: the from-scratch cost the serving
    # tier's cache and incremental store avoid.  It runs in JOB_SLICES
    # slices spread over the run, between the phases (the server idles), so
    # that its tail sees the machine's slow spells as batch-qws's does.
    reference = streams.Membership.of(w.points).expected({"kind": "skyline"})
    jobs = _JobLoop(w.points, reference, run, recorder)
    job_slice_s = ctx.seconds * JOBS_SHARE / JOB_SLICES
    jobs.run_for(job_slice_s)

    setups: List[float] = []
    server: Server | None = None
    try:
        for i in range(SETUP_REPEATS):
            server, took = _setup(launch, w)
            setups.append(took)
            if i < SETUP_REPEATS - 1:
                server.shutdown()
                if launch.data_dir is not None:
                    shutil.rmtree(launch.data_dir)
        assert server is not None
        model = streams.Membership.of(w.points)
        address = server.address

        # Open loop at the workload's rate, timed from scheduled arrival.
        rate = RATES[ctx.workload]
        n_open = max(int(rate * ctx.seconds * OPEN_SHARE / w.block), 1) * w.block
        open_requests = streams.take(w.stream, n_open, 0)
        with Client(address) as client:
            counters_before = _counters(client)
            cache_before = client.call({"op": "stats"})["cache"]
        lines = [streams.encode(r) for r in open_requests]
        outcome = open_loop(address, lines, [i / rate for i in range(n_open)],
                            connections=CONNECTIONS)
        open_answers = _classify(run, open_requests, outcome, model)
        latencies = [
            (done - due) if a is not None and a.get("ok") and not a.get("degraded")
            else float("inf")
            for a, done, due in zip(open_answers, outcome.done, outcome.due)
        ]
        run.generator_bound, lags = _send_lag_bound(outcome)
        _percentiles(run, "latency_ms", latencies, 99, 1e3)
        run.details["send_lag_ms_p50"] = median(lags)
        run.details["offered_qps"] = rate
        jobs.run_for(job_slice_s)

        # Throughput: the same stream continued, a fixed window per connection.
        window_s = ctx.seconds * WINDOW_SHARE
        # Enough stream for 25 times the offered rate; a faster server
        # just finishes the stream early, and the rate is still exact.
        cap = (int(rate * 25 * window_s) // w.block + 4) * w.block
        win_requests = streams.take(w.stream, cap, n_open)
        win = windowed(address, [streams.encode(r) for r in win_requests],
                       connections=CONNECTIONS, window=WINDOW, duration_s=window_s,
                       block=w.block)
        win_answers = _classify(run, win_requests, win, model)
        with Client(address) as client:
            counters = _delta(_counters(client), counters_before)
            cache = _delta(client.call({"op": "stats"})["cache"], cache_before)
        completed = sum(1 for a in win_answers if a is not None and a.get("ok"))
        run.metrics["throughput_qps"] = completed / (win.ended - win.started)
        run.details["throughput_requests"] = completed

        _check_answers(run, server, w, model, "after traffic")
        run.metrics["peak_rss_mb"] = server.peak_rss_mb()
        if recorder is not None:
            _dump_spans(server)
        jobs.run_for(job_slice_s)

        restarts: List[float] = []
        for _ in range(RESTARTS):
            server, took = _restart(launch, server, w, model, run)
            restarts.append(took)
            if recorder is not None:
                _dump_spans(server)
        jobs.run_for(job_slice_s, MIN_JOBS)
        jobs.finish()
        run.metrics["restart_s"] = median(restarts)
        run.metrics["setup_s"] = median(setups)
        if recorder is not None:
            rids = {r["rid"] for r in open_requests}
            latency_s = _served_latency(open_requests, open_answers, outcome)
            all_latency_s = {**latency_s,
                             **_served_latency(win_requests, win_answers, win)}
            response_bytes = {
                r["rid"]: len(line)
                for r, line in zip(open_requests, outcome.responses) if line is not None
            }
            spans = _load_spans(spans_dir)
            layers = serving_layers(spans, latency_s, all_latency_s, response_bytes,
                                    counters, cache, restarts)
            layers["client.send_lag_ms"] = median(lags)
            run.layers.update(layers)
            run.details["traced_requests"] = len(rids)
    finally:
        if server is not None:
            server.shutdown()
    return run


def _served_latency(requests: Sequence[Dict[str, Any]],
                    answers: Sequence[Dict[str, Any] | None],
                    outcome: Outcome) -> Dict[int, float]:
    """Request id -> client-side time from actual send, for answered requests."""
    return {
        r["rid"]: done - sent
        for r, a, done, sent in zip(requests, answers, outcome.done, outcome.sent)
        if a is not None and a.get("ok")
    }


def _load_spans(spans_dir: Path) -> List[Span]:
    spans: List[Span] = []
    for index, path in enumerate(sorted(spans_dir.glob("spans-*.jsonl"))):
        # Span ids are per process: offset them so parent links stay unique.
        offset = index * 1_000_000_000
        for line in path.read_text().splitlines():
            span = Span.from_json(line)
            span.sid += offset
            if span.parent is not None:
                span.parent += offset
            spans.append(span)
    return spans


WORKLOADS: Dict[str, Callable[..., Run]] = {
    "batch-qws": batch_qws,
    "serve-hot": serve,
    "serve-mixed": serve,
    "serve-cluster": serve,
}


def traced_engine() -> Recorder:
    """A recorder with the batch layers wrapped in this process."""
    recorder = Recorder()
    install_engine(recorder)
    return recorder
