"""Compare scan masks, output bytes and CLI output of this checkout with another checkout's.

    python3 tools/scan_parity.py BASELINE_SRC [--scans 1500] [--seed 0]

BASELINE_SRC is the `src` directory of the checkout to compare against,
for example a `git archive` of the parent commit.  The script draws
seeded random scans: cos, sin and Mandelbrot, early exit on and off,
iteration counts on both sides of the Mandelbrot compaction points,
thresholds on both sides of each kernel trap's enable bound and above
711^2 (where an early-exit orbit can pass the threshold test at
|Im z| >= 711), 1-4 workers, default, ragged and one-row tiles, and
corners that are signed zeros, subnormal, near the double range, near
the overflow of cosh and sinh, infinite or nan.  Each checkout runs every scan
in its own process and reports the SHA-256 of the mask and of both
output layouts.  It also runs the scan through `trigiter.cli.main`
(`julia --f NAME` or `mandelbrot`, gnuplot and plain layouts in turn,
`--region=A` and `--region A` in turn, so that negative and non-finite
corners meet the merge of dashed values), and `legacy` on the same
corners for cos and sin, and reports the SHA-256 of each exit code and
stdout; stderr is left out, so error wording may change.  The script
prints the scans whose digests differ and exits 1 if there are any.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import random
import subprocess
import sys

MAPS = ("cos", "sin", "mandelbrot")
TRAP_BOUNDS = {"cos": (1.17, 1.81), "sin": (2.8,), "mandelbrot": (4.0,)}
CORNERS = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308,
           math.inf, -math.inf, math.nan,
           # an imaginary part past about 710.476 overflows cosh and sinh
           710.5, -710.5, 711.0, -711.0, 712.0, -712.0)


def draw_cases(count: int, seed: int) -> list[dict]:
    rng = random.Random(seed)
    cases = []
    for k in range(count):
        name = MAPS[k % len(MAPS)]
        bound = rng.choice(TRAP_BOUNDS[name])
        threshold = rng.choice(
            [bound - 1e-2, bound - 2**-40, bound, bound + 2**-40, bound + 1e-2]
            + [10 ** rng.uniform(-2.0, 0.5), rng.uniform(0.5, 100.0)]
            + [1e6, 1e300]  # above 711**2, where early exit can keep an orbit at |Im z| >= 711
        )
        cx, cy = rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5)
        half = 10 ** rng.uniform(-4, 0.5)
        corners = [cx - half, cy - half, cx + half, cy + half]
        if rng.random() < 0.3:
            for i in rng.sample(range(4), rng.randint(1, 2)):
                corners[i] = rng.choice(CORNERS)
        if rng.random() < 0.5:
            corners = [corners[2], corners[3], corners[0], corners[1]]  # descending
        tile = rng.choice(["default", "rows", "ragged"])
        # 7-9, 16, 17 and 65 straddle the Mandelbrot kernel's compaction points, every 8 steps
        iterations = rng.choice([0, 1, 2, 3, 7, 8, 9, 16, 17, 50, 65, 100, 300] + ([] if tile == "rows" else [1000]))
        cases.append({
            "name": name,
            "corners": corners,
            "grid": rng.randint(2, 48),
            "iterations": iterations,
            "threshold": threshold,
            "early_exit": rng.random() < 0.5,
            "workers": rng.randint(1, 4),
            "tile": tile,
        })
    return cases


def cli_argvs(k: int, case: dict) -> list[list[str]]:
    """The CLI runs of case number `k`: its scan command, and `legacy` for cos and sin."""
    name, corners = case["name"], [repr(c) for c in case["corners"]]
    region = ",".join(corners)
    argv = ["mandelbrot"] if name == "mandelbrot" else ["julia", "--f", name]
    argv += [f"--region={region}"] if k % 2 else ["--region", region]
    argv += ["--grid", str(case["grid"]), "--iterations", str(case["iterations"])]
    argv += ["--threshold", repr(case["threshold"]), "--workers", str(case["workers"])]
    argv += ["--format", ("gnuplot", "plain")[k // 2 % 2]] + ["--early-exit"] * case["early_exit"]
    if name == "mandelbrot":
        return [argv]
    return [argv, ["legacy", *corners, str(case["grid"]), name]]


def run_cli(argv: list[str]) -> bytes:
    """Exit code and stdout of one `trigiter.cli.main` run; stderr is dropped."""
    from trigiter import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return f"{code}\n{out.getvalue()}".encode("ascii")


def run_cases(cases: list[dict]) -> list[list[str]]:
    """Digests of the mask, both layouts and the CLI runs of each scan, in this process."""
    from trigiter import MANDELBROT, EscapeParams, TrigKind, fractal

    fractal._usable_cpus = lambda: 4  # let 1-4 workers start as many threads
    default_tile = fractal._TILE_CELLS
    digests = []
    for k, case in enumerate(cases):
        grid = case["grid"]
        fractal._TILE_CELLS = {"default": default_tile, "rows": 1, "ragged": 3 * grid + 1}[case["tile"]]
        mapping = {"cos": TrigKind.COSINE, "sin": TrigKind.SINE, "mandelbrot": MANDELBROT}[case["name"]]
        params = EscapeParams(case["iterations"], case["threshold"], case["early_exit"])
        ps = fractal.scan_raw(*case["corners"], grid, mapping, params, workers=case["workers"])
        texts = [ps.mask.tobytes()] + [fractal.format_points(ps, p).encode("ascii") for p in (True, False)]
        texts += [run_cli(argv) for argv in cli_argvs(k, case)]
        digests.append([hashlib.sha256(t).hexdigest() for t in texts])
    return digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("baseline", nargs="?", help="src directory of the checkout to compare against")
    parser.add_argument("--scans", type=int, default=1500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        json.dump(run_cases(json.load(sys.stdin)), sys.stdout)
        return 0
    if args.baseline is None:
        parser.error("the baseline src directory is required")
    cases = draw_cases(args.scans, args.seed)
    here = pathlib.Path(__file__).resolve().parents[1] / "src"
    results = {}
    for label, src in (("baseline", args.baseline), ("checkout", str(here))):
        proc = subprocess.run(
            [sys.executable, __file__, "--worker"],
            input=json.dumps(cases),
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            check=True,
        )
        results[label] = json.loads(proc.stdout)
    differ = [k for k, (a, b) in enumerate(zip(results["baseline"], results["checkout"])) if a != b]
    for k in differ:
        print("differs:", json.dumps(cases[k]))
    survivors = sum(1 for d in results["checkout"] if d[1] != hashlib.sha256(b"").hexdigest())
    print(f"{len(cases)} scans, {survivors} with survivors, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
