"""Time scan_raw on a baseline commit and on this checkout; write BENCH_scan.json.

    python3 tools/bench_scan.py --baseline REV [--repeats 5] > BENCH_scan.json

REV is extracted with `git archive` into a temporary directory.  Each
tree runs in its own process and times `scan_raw` for cos and sin over
[-2.5, 2.5]^2 (50 iterations) and the Mandelbrot family over
[-2, 1] x [-1.5, 1.5] (200 iterations), threshold 10, at grids 250, 500
and 1000, early exit off and on, 1 and 2 workers.  After one warm-up
call each configuration is timed `--repeats` times and the median and
the quartiles are recorded, with the host and both commits.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCANS = {
    "cos": ((-2.5, -2.5, 2.5, 2.5), 50),
    "sin": ((-2.5, -2.5, 2.5, 2.5), 50),
    "mandelbrot": ((-2.0, -1.5, 1.0, 1.5), 200),
}
GRIDS = (250, 500, 1000)


def time_scans(repeats: int) -> list[dict]:
    """Rows of timings for every configuration, in this process."""
    import time

    from trigiter import MANDELBROT, EscapeParams, TrigKind, scan_raw

    maps = {"cos": TrigKind.COSINE, "sin": TrigKind.SINE, "mandelbrot": MANDELBROT}
    rows = []
    for name, (region, iterations) in SCANS.items():
        for grid in GRIDS:
            for early_exit in (False, True):
                for workers in (1, 2):
                    params = EscapeParams(iterations, 10.0, early_exit)
                    scan_raw(*region, grid, maps[name], params, workers=workers)
                    times = []
                    for _ in range(repeats):
                        start = time.perf_counter()
                        scan_raw(*region, grid, maps[name], params, workers=workers)
                        times.append(time.perf_counter() - start)
                    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
                    rows.append({
                        "map": name, "grid": grid, "iterations": iterations, "early_exit": early_exit,
                        "workers": workers, "median_s": round(median, 4), "q1_s": round(q1, 4),
                        "q3_s": round(q3, 4), "repeats": repeats,
                    })
    return rows


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def host() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            model = next((line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name")), model)
    except OSError:
        pass
    import numpy

    return {
        "cpu": model,
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_tree(src: pathlib.Path, repeats: int) -> list[dict]:
    proc = subprocess.run(
        [sys.executable, __file__, "--worker", "--repeats", str(repeats)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
    )
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", help="git revision to compare against")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        json.dump(time_scans(args.repeats), sys.stdout)
        return 0
    if args.baseline is None:
        parser.error("--baseline is required")
    if args.repeats < 2:
        parser.error("--repeats must be at least 2, for the quartiles")
    baseline = git("rev-parse", args.baseline)
    change = git("rev-parse", "HEAD") + ("+uncommitted" if git("status", "--porcelain", "--", "src") else "")
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", baseline, "src"], cwd=ROOT, capture_output=True, check=True)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        rows = [dict(tree="parent", **row) for row in run_tree(pathlib.Path(tmp) / "src", args.repeats)]
    rows += [dict(tree="change", **row) for row in run_tree(ROOT / "src", args.repeats)]
    report = {
        "benchmark": "scan_raw wall time per call, seconds",
        "host": host(),
        "commits": {"parent": baseline, "change": change},
        "rows": rows,
    }
    json.dump(report, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
