"""Time scans or calculus calls on a baseline commit and on this checkout.

    python3 tools/bench_scan.py --baseline REV [--repeats 5] > BENCH_scan.json
    python3 tools/bench_scan.py --baseline REV --section calculus > BENCH_calculus.json
    python3 tools/bench_scan.py --baseline REV --section startup --repeats 15 > BENCH_startup.json

REV is extracted with `git archive` into a temporary directory, and this
checkout's `src` is copied twice beside it, without `__pycache__`, so no
tree starts with a bytecode cache; the second copy of this checkout
gives an A/A comparison.  Every timing is one fresh process, started and
measured by `launch`.  In the scan and calculus sections the process
makes one untimed call (none for a first call), then the timed call or
calls, and prints the seconds it measured.

The scan section times `scan_raw` for cos and sin over [-2.5, 2.5]^2
(50 iterations) and the Mandelbrot family over [-2, 1] x [-1.5, 1.5]
(200 iterations), threshold 10, at grids 250, 500 and 1000, early exit
off and on; and the Mandelbrot boundary window of centre -0.1 + 1.0i
and half-width 0.3 (300 iterations, early exit, grid 250), where most
orbits neither escape early nor enter a trap.  cos and sin run with 1
and 2 workers, Mandelbrot with 1: `scan_raw` runs a Mandelbrot scan on
the calling thread for any worker count, so a 2-worker row would time
the same path again.

The calculus section times `dottie_digits` at 5 and 64 digits, once as
the first call of a fresh process (its lazy imports and any one-time
set-up included) and once as the mean of 100 later calls;
`iterated_series` for cos at orders 2 and 12 and sin at order 6; and
`product_nth_derivative` of 4, 8 and 10 seeded integer tables.

The startup section times fresh processes from launch to exit, stdout
to the null device: a bare interpreter (`-c pass`, which pays the
host's `site` start-up alone), `import trigiter`, `import trigiter.cli`,
the five subcommands that use no numpy (`dottie`, `iterate`,
`derivative`, `bounds`, `extrema`), `series --f cos --order 12 --terms
30`, a grid-250 `legacy` cos scan and a grid-200 `mandelbrot
--early-exit` scan.  Each row also gives its launch's excess over the
bare interpreter's median in the same tree, trigiter's own share, and
each ratio the change's excess over the parent's.

Each tree's first launch is untimed and imports every module of the
package: it writes the tree's bytecode cache, which the timed launches
read, unless PYTHONDONTWRITEBYTECODE is set, when every launch compiles
the modules it imports.  The report states which.  Then each of
`--repeats` repeats times every configuration once on every tree, the
trees taking turns and the one that goes first rotating with the
repeat, so host drift falls on all of them alike and the bare row is
timed beside the launches it is subtracted from.  The median and the
quartiles are recorded per tree, and per configuration the ratio of the
change's median to the parent's beside the ratio of the two copies of
this checkout: a change ratio is resolved only where it lies further
from 1 than that A/A ratio.  The host, both commits and the bytecode
setting are recorded too.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import pathlib
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

from launch import launch

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCANS = {
    "cos": ((-2.5, -2.5, 2.5, 2.5), 50),
    "sin": ((-2.5, -2.5, 2.5, 2.5), 50),
    "mandelbrot": ((-2.0, -1.5, 1.0, 1.5), 200),
    "mandelbrot-boundary": ((-0.4, 0.7, 0.2, 1.3), 300),
}
GRIDS = (250, 500, 1000)


def scan_configurations() -> list[dict]:
    full = [
        {"map": name, "grid": grid, "iterations": SCANS[name][1], "early_exit": early_exit, "workers": workers}
        for name in ("cos", "sin", "mandelbrot")
        for grid in GRIDS
        for early_exit in (False, True)
        for workers in ((1,) if name == "mandelbrot" else (1, 2))
    ]
    boundary = {"map": "mandelbrot-boundary", "grid": 250, "iterations": SCANS["mandelbrot-boundary"][1],
                "early_exit": True, "workers": 1}
    return full + [boundary]


def calculus_configurations() -> list[dict]:
    # the calculus workload's sizes: its top series orders at its largest truncation, and its (8, 12) tail products
    return (
        [{"call": "dottie_digits", "digits": digits, "first_call": True} for digits in (5, 64)]
        + [{"call": "dottie_digits", "digits": digits, "calls": 100} for digits in (5, 64)]
        + [{"call": "iterated_series", "map": name, "order": order, "truncation": 30}
           for name, order in (("cos", 2), ("cos", 12), ("sin", 6))]
        + [{"call": "product_nth_derivative", "factors": factors, "order": order}
           for factors, order in ((4, 12), (8, 12), (10, 6))]
    )


BARE = "bare interpreter"


def startup_configurations() -> list[dict]:
    command = ["-m", "trigiter"]
    return [
        {"launch": BARE, "argv": ["-c", "pass"]},
        {"launch": "import trigiter", "argv": ["-c", "import trigiter"]},
        {"launch": "import trigiter.cli", "argv": ["-c", "import trigiter.cli"]},
        {"launch": "dottie", "argv": [*command, "dottie"]},
        {"launch": "iterate", "argv": [*command, "iterate", "--f", "cos", "--n", "10", "--v", "0.5"]},
        {"launch": "derivative", "argv": [*command, "derivative", "--f", "cos", "--n", "5", "--x", "0.5"]},
        {"launch": "bounds", "argv": [*command, "bounds", "--f", "cos", "--n", "5"]},
        {"launch": "extrema", "argv": [*command, "extrema", "--f", "cos", "--n", "3"]},
        {"launch": "series", "argv": [*command, "series", "--f", "cos", "--order", "12", "--terms", "30"]},
        {"launch": "legacy", "argv": [*command, "legacy", "-2.5", "-2.5", "2.5", "2.5", "250", "cos"]},
        {"launch": "mandelbrot", "argv": [*command, "mandelbrot", "--grid", "200", "--early-exit"]},
    ]


def bind(trigiter, config: dict):
    """The call without arguments that a configuration times."""
    call = config.get("call", "scan_raw")
    if call == "scan_raw":
        region, iterations = SCANS[config["map"]]
        mapping = trigiter.MANDELBROT if config["map"].startswith("mandelbrot") else trigiter.TrigKind.parse(config["map"])
        params = trigiter.EscapeParams(iterations, 10.0, config["early_exit"])
        return lambda: trigiter.scan_raw(*region, config["grid"], mapping, params, workers=config["workers"])
    if call == "dottie_digits":
        return lambda: trigiter.dottie_digits(config["digits"])
    if call == "iterated_series":
        kind = trigiter.TrigKind.parse(config["map"])
        return lambda: trigiter.iterated_series(kind, config["order"], config["truncation"])
    rng = random.Random(config["factors"] * 1000 + config["order"])
    tables = [[rng.randint(-9, 9) for _ in range(config["order"] + 1)] for _ in range(config["factors"])]
    return lambda: trigiter.product_nth_derivative(tables, config["order"])


def timed_call(config: dict) -> None:
    """Print a configuration's seconds per call, after one untimed call unless it times the first."""
    import trigiter

    work = bind(trigiter, config)
    if not config.get("first_call"):
        work()
    calls = config.get("calls", 1)
    start = time.perf_counter()
    for _ in range(calls):
        work()
    print((time.perf_counter() - start) / calls)


# one fresh process timing the scan or calculus configuration given as JSON in its first argument
TIMED_CALL = (f"import json, sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); import bench_scan; "
              "bench_scan.timed_call(json.loads(sys.argv[1]))")
# each tree's untimed first launch imports every module, so it writes the bytecode cache where that is allowed
FIRST_LAUNCH = {"argv": ["-c", "import trigiter.cli, trigiter.fractal, trigiter.series"]}


def measure(src: pathlib.Path, config: dict) -> float:
    """One timing in a fresh process on `src`: a startup launch's wall time, or the seconds per call it prints."""
    argv = config.get("argv") or ["-c", TIMED_CALL, json.dumps(config)]
    wall, _, code, out = launch(src, argv, capture="argv" not in config)
    if code:
        raise RuntimeError(f"{' '.join(argv)} exited with {code} on {src}")
    return wall if out is None else float(out)


SECTIONS = {
    "scan": ("scan_raw wall time per call, seconds", scan_configurations),
    "calculus": ("library call wall time, seconds per call (first_call: the first call of a fresh process)",
                 calculus_configurations),
    "startup": ("fresh-process wall time per launch, seconds, from launch to exit with stdout to the null device",
                startup_configurations),
}


def significant(seconds: float) -> float:
    return float(f"{seconds:.4g}")


def time_trees(srcs: dict[str, pathlib.Path], configs: list[dict], repeats: int) -> tuple[list[dict], list[dict]]:
    """Rows of timings for every configuration and tree, and the ratios of their medians.

    After each tree's untimed first launch, every repeat times every
    configuration on every tree, one launch each.  The trees take turns,
    and which one goes first rotates with the repeat.
    """
    names = list(srcs)
    for src in srcs.values():
        measure(src, FIRST_LAUNCH)
    times = [{name: [] for name in names} for _ in configs]
    for repeat in range(repeats):
        first = repeat % len(names)
        for config, timed in zip(configs, times):
            for name in names[first:] + names[:first]:
                timed[name].append(measure(srcs[name], config))
    rows = {name: [] for name in names}
    ratios = []
    for config, timed in zip(configs, times):
        medians = {}
        for name in names:
            q1, medians[name], q3 = statistics.quantiles(timed[name], n=4, method="inclusive")
            rows[name].append({
                "tree": name, **config, "median_s": significant(medians[name]), "q1_s": significant(q1),
                "q3_s": significant(q3), "repeats": repeats,
            })
        ratios.append({
            **config,
            "change_over_parent": round(medians["change"] / medians["parent"], 3),
            "aa_change_over_change": round(medians["change-aa"] / medians["change"], 3),
        })
    return [row for name in names for row in rows[name]], ratios


def add_excess_over_bare(rows: list[dict], ratios: list[dict]) -> None:
    """Give each launch its excess over the bare interpreter in its tree, and each ratio the excesses' ratio."""
    bare = {row["tree"]: row["median_s"] for row in rows if row["launch"] == BARE}
    excess = {}
    for row in rows:
        row["excess_s"] = excess[row["tree"], row["launch"]] = significant(row["median_s"] - bare[row["tree"]])
    for ratio in ratios:
        if ratio["launch"] != BARE:
            name = ratio["launch"]
            ratio["excess_change_over_parent"] = round(excess["change", name] / excess["parent", name], 3)


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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", help="git revision to compare against")
    parser.add_argument("--section", choices=SECTIONS, default="scan", help="what to time (default: scan)")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    if args.baseline is None:
        parser.error("--baseline is required")
    if args.repeats < 2:
        parser.error("--repeats must be at least 2, for the quartiles")
    benchmark, configurations = SECTIONS[args.section]
    baseline = git("rev-parse", args.baseline)
    change = git("rev-parse", "HEAD") + ("+uncommitted" if git("status", "--porcelain", "--", "src") else "")
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", baseline, "src"], cwd=ROOT, capture_output=True, check=True)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(pathlib.Path(tmp) / "parent", filter="data")
        for copy in ("change", "change-aa"):
            shutil.copytree(ROOT / "src", pathlib.Path(tmp) / copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
        srcs = {name: pathlib.Path(tmp) / name / "src" for name in ("parent", "change", "change-aa")}
        rows, ratios = time_trees(srcs, configurations(), args.repeats)
    if args.section == "startup":
        add_excess_over_bare(rows, ratios)
    report = {
        "benchmark": benchmark,
        "host": host(),
        "commits": {"parent": baseline, "change": change},
        "bytecode": "none: PYTHONDONTWRITEBYTECODE is set, so every process compiles the modules it imports"
        if os.environ.get("PYTHONDONTWRITEBYTECODE")
        else "cached: each tree starts without one, and its untimed first launch writes it",
        "ratios": ratios,
        "rows": rows,
    }
    json.dump(report, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
