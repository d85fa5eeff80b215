"""trigiter benchmark: one seeded workload per run, every output checked.

    python3 trigbench/run.py --workload legacy-dense --seed 1 --seconds 30 --trace 0

Runs from the root of a trigiter checkout and imports the package from
its src/ directory.  Each run is one closed loop from one client: the
next request starts when the previous one returned.  With --trace 0 it
sends the workload's requests in passes for --seconds of program time
and prints the end-to-end metrics, with latencies at nominal host
speed (hostspeed.py); with --trace 1 it runs one cycle of the workload
untraced and then traced, and prints the per-layer metrics.  The last
line of stdout is a JSON object; the lines before it are a
human-readable account.  Exit 3 means the run was refused.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import hostspeed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = HERE / "data"
TRACE_DIR = ROOT / ".bench_trace"
WORKLOADS = ("legacy-dense", "mandelbrot-escape", "calculus")
DEFAULT_SEED = 0
SETUP_SAMPLES = 11
IMPORT_SAMPLES = 5
SPEEDUP_REPEATS = 3
GOLDEN_PER_RUN = 2
# A run sends whole passes until the program time reaches --seconds, and
# at least this many, so that at least ten samples lie beyond the tail
# percentile of every workload.
MIN_PASSES = 3

SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import trigiter.cli; "
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))"
)
IMPORT_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import trigiter"


class Refused(Exception):
    """The run cannot be made as specified."""


class _Sink(io.RawIOBase):
    def __init__(self, chunks: list):
        self.chunks = chunks

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self.chunks.append(bytes(data))
        return len(data)


class Capture:
    """stdout for one request: a text stream, as a pipe would get, that keeps the bytes."""

    def __init__(self):
        self.chunks: list[bytes] = []
        self.stream = io.TextIOWrapper(io.BufferedWriter(_Sink(self.chunks)), encoding="utf-8", newline="\n")

    def getvalue(self) -> bytes:
        return b"".join(self.chunks)


def cpu_affinity() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def launch_setup() -> float:
    """Time from spawning a fresh interpreter until trigiter.cli is imported."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1]) - start


class SetupSampler:
    """Set-up launches spread over the timed phase, at even steps of program time.

    Spreading them means a spell of load on the host reaches only some of
    them, and the median passes over it.
    """

    def __init__(self, seconds: float):
        launch_setup()  # the first launch also writes the bytecode cache
        self.marks = [seconds * k / SETUP_SAMPLES for k in range(SETUP_SAMPLES)]
        self.times: list[float] = []

    def due(self, busy: float) -> None:
        while self.marks and busy >= self.marks[0]:
            self.marks.pop(0)
            self.times.append(launch_setup())

    def median(self) -> float:
        self.due(math.inf)
        return statistics.median(self.times)


def measure_imports(samples: int) -> tuple[float, float]:
    """Median cumulative `python -X importtime` of trigiter and of its mpmath subtree."""
    found = {"trigiter": [], "mpmath": []}
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", IMPORT_CODE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if line.startswith("import time:") and len(fields) == 3 and fields[1].strip().isdigit():
                cumulative.setdefault(fields[2].strip(), int(fields[1]) / 1e6)
        for name, values in found.items():
            values.append(cumulative.get(name, 0.0))
    return statistics.median(found["trigiter"]), statistics.median(found["mpmath"])


def tail_latency(latencies: list[float], percentile: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(latencies)
    rank = max(1, -(-percentile * len(ordered) // 100))
    return ordered[rank - 1], len(ordered) - rank


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Result:
    __slots__ = ("request", "latency", "output", "sha256", "value", "error", "outcome", "problems", "info")

    def __init__(self, request, latency, output=b"", value=None, error=None):
        self.request = request
        self.latency = latency
        self.output = output
        self.sha256 = digest(output)
        self.value = value
        self.error = error
        self.outcome = checks.OK
        self.problems: list[str] = []
        self.info: dict = {}


class Runner:
    """Generates, executes and checks the requests of one workload."""

    def __init__(self, workload: str, seed: int, trigiter, cli):
        self.workload = workload
        self.trigiter = trigiter
        self.cli = cli
        self.tracer = None
        self.request_rng = random.Random(seed)
        self.check_rng = random.Random(f"checks-{seed}")
        self.affinity = cpu_affinity()
        self.cpu_count = os.cpu_count() or 1
        self.workers = min(workloads.MANDELBROT_WORKERS, self.affinity)
        oracles = checks.load_oracles(ROOT)
        self.scan_checker = checks.ScanChecker(oracles)
        self.calculus_checker = None
        if workload == "calculus":
            self.calculus_checker = checks.CalculusChecker(oracles, DATA / "series_reference.json")
        with open(DATA / "golden.json") as fh:
            self.golden = json.load(fh).get(workload, [])
        self.golden_by_label = {" ".join(g["argv"]): g["sha256"] for g in self.golden}
        self.golden_checked = 0
        self.results: list[Result] = []
        self.probe_problems: list[str] = []

    # ------------------------------------------------------- requests

    def cycle(self) -> list:
        if self.workload == "legacy-dense":
            return workloads.legacy_dense(self.request_rng, self.cpu_count)
        if self.workload == "mandelbrot-escape":
            return workloads.mandelbrot_escape(self.request_rng, self.workers)
        return workloads.calculus(self.request_rng)

    def _call_args(self, request) -> list:
        args = list(request.args)
        if request.call in ("iterated_series", "iterate", "iterated_derivative"):
            args[0] = self.trigiter.TrigKind.parse(args[0])
        elif request.call == "dottie":
            args[1] = self.trigiter.SolverMethod(args[1])
        return args

    def execute(self, request) -> Result:
        """Run one request; only the program's work is inside the timed window."""
        if request.call:
            args = self._call_args(request)
            function = getattr(self.trigiter, request.call)  # looked up per call, so traced when patched
            start = time.perf_counter()
            try:
                value = function(*args)
            except Exception as exc:
                return Result(request, time.perf_counter() - start, error=exc)
            return Result(request, time.perf_counter() - start, value=value)
        capture = Capture()
        stdout = capture.stream if self.tracer is None else tracing.TracedStream(capture.stream, self.tracer)
        saved, sys.stdout = sys.stdout, stdout
        error = None
        start = time.perf_counter()
        try:
            code = self.cli.main(list(request.argv))
            stdout.flush()
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code, error = None, exc
        finally:
            latency = time.perf_counter() - start
            sys.stdout = saved
        if error is None and code != 0:
            error = RuntimeError(f"exit status {code}")
        return Result(request, latency, output=capture.getvalue(), error=error)

    def check(self, result: Result) -> Result:
        request = result.request
        if request.call:
            result.outcome, result.problems = self.calculus_checker.check(
                request, result.value, result.error, self.check_rng
            )
            return result
        if result.error is not None:
            result.outcome = checks.FAILED
            result.problems = [f"{request.label}: {type(result.error).__name__}: {result.error}"]
            return result
        problems, result.info = self.scan_checker.check(request.scan, result.output, self.check_rng)
        frozen = self.golden_by_label.get(request.label)
        if frozen is not None:
            self.golden_checked += 1
            if result.sha256 != frozen:
                problems.append("output differs from the frozen digest")
        if problems:
            result.outcome = checks.FAILED
            result.problems = [f"{request.label}: {p}" for p in problems]
        return result

    def run_checked(self, request) -> Result:
        result = self.check(self.execute(request))
        result.info["bytes"] = len(result.output)
        result.output = None  # keep the digest, not the bytes
        self.results.append(result)
        return result

    def run_again(self, first: Result) -> Result:
        """Send a request again; its output must be the first pass's, which was checked in full."""
        result = self.execute(first.request)
        same = result.sha256 == first.sha256 and result.value == first.value
        if not same or type(result.error) is not type(first.error):
            result.outcome = checks.FAILED
            result.problems = [f"{first.request.label}: a later pass gave a different result"]
        elif first.outcome != checks.OK:
            result.outcome = first.outcome  # the same failure again
        result.output = None
        self.results.append(result)
        return result

    def series_probe(self) -> dict:
        """Outcomes of the whole iterated_series grid, today's failing cases included.

        The probe runs outside the timed loop; its failures are the known
        defects of the series certificate and leave `correct` alone.
        """
        rng = random.Random("series-probe")
        outcomes = {}
        for kind, n, truncation in workloads.SERIES_PROBE:
            request = workloads.call("iterated_series", kind, n, truncation)
            result = self.execute(request)
            outcome, problems = self.calculus_checker.check(request, result.value, result.error, rng)
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
            if outcome == checks.FAILED:
                self.probe_problems += problems
        return outcomes

    def warm_up(self) -> None:
        """One small request so lazy set-up inside the process is not timed."""
        if self.workload == "calculus":
            self.execute(workloads.call("iterated_series", "cos", 2, 8))
        elif self.workload == "legacy-dense":
            self.execute(workloads.Request("warm-up", ("legacy", "-2.5", "-2.5", "2.5", "2.5", "20", "cos")))
        else:
            argv = ("mandelbrot", "--early-exit", "--workers", str(self.workers), "--grid", "20")
            self.execute(workloads.Request("warm-up", argv))

    def check_golden(self) -> list[str]:
        """Replay the cheapest frozen requests of the default seed; their bytes must not change."""
        problems = []
        for entry in sorted(self.golden, key=lambda g: (g["grid"], g["argv"]))[:GOLDEN_PER_RUN]:
            argv = list(entry["argv"])
            if argv[0] == "mandelbrot":
                argv[1:1] = ["--workers", str(self.workers)]
            result = self.execute(workloads.Request("golden", tuple(argv)))
            self.golden_checked += 1
            if result.error is not None or result.sha256 != entry["sha256"]:
                problems.append(f"{' '.join(entry['argv'])}: output differs from the frozen digest")
        return problems

    # ------------------------------------------------------ accounting

    def max_threads(self, cycle) -> int:
        threads = max((r.threads for r in cycle), default=0)
        if threads > self.affinity:
            raise Refused(
                f"a request would start {threads} scan threads but CPU affinity allows "
                f"{self.affinity} (os.cpu_count() = {self.cpu_count})"
            )
        return threads


def summarize(results: list[Result]) -> dict:
    failed = [r for r in results if r.outcome != checks.OK]
    return {
        "attempted": len(results),
        "failed": len(failed),
        "busy": sum(r.latency for r in results),
        "cells": sum(r.info.get("cells", 0) for r in results),
        "problems": [p for r in failed for p in r.problems],
    }


def emit(lines: list[str], correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    for line in lines:
        print(line)
    payload = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(payload), flush=True)


def run_end_to_end(runner: Runner, seconds: float, lines: list[str]) -> tuple:
    requests = [r for _ in range(workloads.CYCLES_PER_RUN[runner.workload]) for r in runner.cycle()]
    threads = runner.max_threads(requests)
    percentile = workloads.TAIL_PERCENTILE[runner.workload]
    setup = SetupSampler(seconds)
    runner.warm_up()
    host = hostspeed.HostSpeed(runner.workload)
    latencies, normalized = [], []
    busy = 0.0

    def timed(result: Result) -> Result:
        nonlocal busy
        latencies.append(result.latency)
        normalized.append(result.latency / host.slowdown())
        busy += result.latency
        setup.due(busy)
        host.due(busy)
        return result

    first = [timed(runner.run_checked(request)) for request in requests]  # checked in full
    passes = 1
    gc.collect()
    while busy < seconds or passes < MIN_PASSES:
        for previous in first:
            timed(runner.run_again(previous))
        passes += 1
        gc.collect()
    setup_s = setup.median()
    golden_problems = runner.check_golden() if runner.golden else []
    outcomes = runner.series_probe() if runner.workload == "calculus" else {}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    s = summarize(runner.results)
    cells = sum(r.info.get("cells", 0) for r in first)
    raw_tail, beyond = tail_latency(latencies, percentile)
    norm_tail, _ = tail_latency(normalized, percentile)
    norm_p50 = statistics.median(normalized)
    norm_requests_per_s = len(normalized) / sum(normalized)
    lines += [
        f"requests: {len(requests)} distinct, sent in {passes} passes: {s['attempted']} attempted, "
        f"{s['failed']} failed (failed_ratio {s['failed'] / s['attempted']:.4f})",
        f"timed phase: {busy:.3f} s of program time; scan threads per request: {threads}",
        f"raw: latency_p50_s {statistics.median(latencies):.6f} s; latency_tail_s {raw_tail:.6f} s "
        f"(p{percentile} of {len(latencies)} samples, {beyond} beyond it); "
        f"requests_per_s {len(latencies) / busy:.4f} 1/s",
        f"host slowdown against nominal, {'+'.join(hostspeed.PARTS[runner.workload])} probe: "
        f"median {host.median_slowdown():.3f} over {len(host.times)} probes",
        f"at nominal host speed: norm_latency_p50_s {norm_p50:.6f} s; norm_latency_tail_s {norm_tail:.6f} s; "
        f"norm_requests_per_s {norm_requests_per_s:.4f} 1/s",
    ]
    if cells:
        lines.append(f"cells_per_s {cells * passes / busy:.1f} 1/s ({cells} cells per pass)")
    if outcomes:
        lines.append(f"iterated_series probe outside the timed loop (known defects): {outcomes}")
    lines += [
        f"peak_rss_mb {peak_rss_mb:.2f} MiB; setup_s {setup_s:.4f} s (median of {len(setup.times)})",
        f"frozen digests checked: {runner.golden_checked}",
    ]
    problems = s["problems"] + golden_problems + runner.probe_problems
    lines += [f"PROBLEM {problem}" for problem in problems[:20]]
    metrics = {
        "setup_s": (setup_s, "s"),
        "norm_latency_p50_s": (norm_p50, "s"),
        "norm_latency_tail_s": (norm_tail, "s"),
        "norm_requests_per_s": (norm_requests_per_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    return not problems, s["attempted"], s["failed"], metrics


def speedup_2w(runner: Runner, cycle) -> float:
    """scan_raw of the cycle's median-cost request with 2 workers, relative to 1."""
    if runner.affinity < 2:
        return 1.0
    from trigiter import fractal

    scans = sorted((r.scan for r in cycle), key=lambda s: (s.grid * s.grid * s.iterations, s.x1))
    spec = scans[len(scans) // 2]
    kinds = {"cos": runner.trigiter.TrigKind.COSINE, "sin": runner.trigiter.TrigKind.SINE}
    mapping = kinds.get(spec.mapping, runner.trigiter.MANDELBROT)
    params = runner.trigiter.EscapeParams(spec.iterations, spec.threshold, spec.early_exit)
    times = {1: [], 2: []}
    for _ in range(SPEEDUP_REPEATS):
        for workers in (1, 2):
            start = time.perf_counter()
            fractal.scan_raw(spec.x1, spec.y1, spec.x2, spec.y2, spec.grid, mapping, params, workers=workers)
            times[workers].append(time.perf_counter() - start)
    return statistics.median(times[1]) / statistics.median(times[2])


def run_traced(runner: Runner, seed: int, lines: list[str]) -> tuple:
    cycle = runner.cycle()
    threads = runner.max_threads(cycle)
    import_trigiter, import_mpmath = measure_imports(IMPORT_SAMPLES)
    runner.warm_up()
    untraced = [runner.run_checked(r) for r in cycle]
    gc.collect()

    tracer = tracing.Tracer()
    tracing.install(tracer, runner.trigiter)
    runner.tracer = tracer
    traced = []
    try:
        for k, request in enumerate(cycle):
            tracer.request = k
            traced.append(runner.execute(request))
    finally:
        tracer.uninstall()
        runner.tracer = None
    # tracing must not change what the program returns or prints
    for before, after in zip(untraced, traced):
        same = before.sha256 == after.sha256 and before.value == after.value
        if not same or type(before.error) is not type(after.error):
            before.outcome = checks.FAILED
            before.problems.append(f"{before.request.label}: traced run gave a different result")
    outcomes = runner.series_probe() if runner.workload == "calculus" else {}

    s = summarize(untraced)
    untraced_wall = s["busy"]
    traced_wall = sum(r.latency for r in traced)
    metrics = tracing.layer_metrics(tracer.spans)
    scans = [r for r in untraced if r.request.scan]
    cell_steps = sum(r.info.get("cell_steps", 0) for r in scans)
    metrics.update({
        "import.trigiter_s": import_trigiter,
        "import.mpmath_s": import_mpmath,
        "cli.output_bytes": sum(r.info["bytes"] for r in untraced),
        "cli.cells_per_s": s["cells"] / untraced_wall if scans else 0.0,
        "kernels.speedup_2w": speedup_2w(runner, cycle) if scans else 0.0,
        "kernels.live_step_share": sum(r.info.get("live_steps", 0) for r in scans) / cell_steps if scans else 0.0,
        "series.tail_bound_errors": outcomes.get(checks.TAIL_BOUND_ERROR, 0),
        "series.tail_bound_violations": outcomes.get(checks.TAIL_BOUND_VIOLATION, 0),
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    TRACE_DIR.mkdir(exist_ok=True)
    spans_path = TRACE_DIR / f"{runner.workload}-seed{seed}.jsonl"
    tracer.dump(spans_path)

    lines += [
        f"one cycle of {len(cycle)} requests, untraced {untraced_wall:.4f} s, traced {traced_wall:.4f} s",
        f"scan threads per request: {threads}",
        f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}",
    ]
    if outcomes:
        lines.append(f"iterated_series probe outside the traced cycle (known defects): {outcomes}")
    problems = s["problems"] + runner.probe_problems
    lines += [f"PROBLEM {problem}" for problem in problems[:20]]
    units = {name: unit for name, unit in PER_LAYER_UNITS}
    out = {name: (metrics[name], units[name]) for name, _ in PER_LAYER_UNITS}
    attempted = 2 * s["attempted"]
    return not problems, attempted, 2 * s["failed"], out


PER_LAYER_UNITS = (
    ("import.trigiter_s", "s"),
    ("import.mpmath_s", "s"),
    ("cli.parse_s", "s"),
    ("cli.write_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("cli.cells_per_s", "1/s"),
    ("fractal.axis_s", "s"),
    ("fractal.assembly_s", "s"),
    ("fractal.survivors", "count"),
    ("fractal.survivor_share", "1"),
    ("fractal.format_s", "s"),
    ("fractal.format_lines", "count"),
    ("kernels.busy_s", "s"),
    ("kernels.wall_s", "s"),
    ("kernels.chunk_imbalance", "1"),
    ("kernels.cells", "count"),
    ("kernels.cell_steps", "count"),
    ("kernels.speedup_2w", "1"),
    ("kernels.live_step_share", "1"),
    ("series.iterated_series_s", "s"),
    ("series.compose_s", "s"),
    ("series.compose_calls", "count"),
    ("series.tail_bound_errors", "count"),
    ("series.tail_bound_violations", "count"),
    ("derivatives.product_nth_derivative_s", "s"),
    ("derivatives.composition_terms", "count"),
    ("derivatives.iterated_derivative_s", "s"),
    ("iteration.dottie_digits_s", "s"),
    ("iteration.scalar_s", "s"),
    ("trace.overhead_s", "s"),
)


def load_program():
    """Import trigiter from the checkout's src/, refusing any other copy."""
    for path in (SRC / "trigiter" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not path.is_file():
            raise Refused(f"not a trigiter checkout: {path.relative_to(ROOT)} is missing")
    sys.path.insert(0, str(SRC))
    import trigiter
    from trigiter import cli

    if Path(trigiter.__file__).resolve().parent != SRC / "trigiter":
        raise Refused(f"imported trigiter from {trigiter.__file__}, not from the checkout")
    return trigiter, cli


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0, help="program time measured per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    try:
        trigiter, cli = load_program()
        runner = Runner(args.workload, args.seed, trigiter, cli)
        lines = [
            f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}",
            f"cpu: os.cpu_count() {runner.cpu_count}, affinity {runner.affinity}; "
            f"legacy scans use {runner.cpu_count} threads, mandelbrot --workers {runner.workers}",
        ]
        if args.trace:
            correct, attempted, failed, metrics = run_traced(runner, args.seed, lines)
        else:
            correct, attempted, failed, metrics = run_end_to_end(runner, args.seconds, lines)
    except Refused as exc:
        print(f"trigbench: refused: {exc}", file=sys.stderr)
        return 3
    lines.append(f"run took {time.perf_counter() - started:.1f} s")
    emit(lines, correct, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
