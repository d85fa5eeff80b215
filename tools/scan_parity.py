"""Compare scans, library calls and command lines of this checkout with another checkout's.

    python3 tools/scan_parity.py BASELINE_SRC [--scans 1500] [--seed 0]

BASELINE_SRC is the `src` directory of the checkout to compare against,
for example a `git archive` of the parent commit.  Each checkout runs
every case in its own process and reports digests; the script prints
the cases whose digests differ and exits 1 if there are any.

Scans: the script draws seeded random scans: cos, sin and Mandelbrot,
early exit on and off, iteration counts on both sides of the Mandelbrot
compaction points, thresholds on both sides of each kernel trap's
enable bound, on both sides of the Mandelbrot escape radius^2 for
corners of magnitude 2.5, 1e3 and 1e150 (below it early exit tests
every step, its values fixed in ESCAPE_RADII_SQ), Mandelbrot windows
of half-width 1e-3 to 0.15 around the period-3 components, whose
interior the kernel marks without iterating (drawn from a second
generator, so the other cases are those the seed drew before these
windows were added), Mandelbrot windows of half-width 1e-9 to 1e-3 on
the main cardioid and the period-2 bulb, centred where the multiplier
of the attracting cycle has modulus 1 - 1e-3 (the margin of the interior
test, where rounding decides it), 1 - 1e-3 -+ 1e-9 or 1 (the boundary),
with thresholds on both sides of 4 (drawn from a third generator, in
place of half the Mandelbrot cases that drew neither an escape-radius
case nor a period-3 window), and above 711^2
(where an early-exit orbit can pass the threshold test at
|Im z| >= 711), 1-4 workers, default, ragged and one-row tiles, and
corners that are signed zeros, subnormal, near the double range, near
the overflow of cosh and sinh, infinite or nan.  It
digests the mask and both output layouts.  It also runs the scan
through `trigiter.cli.main` (`julia --f NAME` or `mandelbrot`, gnuplot
and plain layouts in turn, `--region=A` and `--region A` in turn, so
that negative and non-finite corners meet the merge of dashed values),
and `legacy` on the same corners for cos and sin.

Calculus: from the same seed it draws calls of every public calculus
function (iteration, derivatives, ranges, series, composition, series
evaluation, the Dottie solvers and digits) and of `EscapeParams`,
refused arguments included: bools as counts; zero, signed zero,
underflowing, nan and infinite values as the tolerance and the
threshold; and a str, a bool and an int beyond the double range among
the reals and real starts of `iterate`, `iterated_derivative` and
series evaluation, each also passed on every seed to those three,
`dottie`, `EscapeParams`, a `PowerSeries` coefficient and tail bound,
and each corner of `scan_raw`; and on every seed values other than
True and False as `EscapeParams`' `early_exit` and `format_points`'
`padded`, and values other than an EscapeParams as `scan_raw`'s
`params`.  It digests each result's exact floats
(a scan's mask and axes) or the type of the exception it raises; and
command lines of `dottie`, `iterate`, `derivative`, `series`, `bounds`
and `extrema`, refused and dash-led values included.  A seed's calculus section runs
in 0.3-0.7 s per checkout on a 2-vCPU x86-64 host.

A command line is digested by its exit code and stdout; stderr is left
out, as are exception messages, so error wording may change.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import functools
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


# (m, r^2): the Mandelbrot kernel's escape radius^2 for a tile whose
# largest |Re c| and |Im c| are both m, as `_kernels._escape_radius_sq`
# gave it when this table was written.  Fixed here, so that the drawn
# cases depend on the seed alone.
ESCAPE_RADII_SQ = ((2.5, 6.793601075319986), (1e3, 1462.0088426514965), (1e150, 1.4142135623756672e150))


# The roots of c^3 + 2c^2 + c + 1: the centres of the three period-3
# components of the Mandelbrot set, where z = 0 is a 3-cycle.
PERIOD3_CENTRES = (complex(-1.7548776662466927, 0.0), complex(-0.12256116687665362, 0.7448617666197442),
                   complex(-0.12256116687665362, -0.7448617666197442))


# Moduli of the multiplier at the centres of the windows on the main
# cardioid and the period-2 bulb: the interior test's margin, each side of
# it, and the boundary of the component.
MARGIN_RADII = (1 - 1e-3, 1 - 1e-3 - 1e-9, 1 - 1e-3 + 1e-9, 1.0)


def near(bound: float, unit: float = 1.0) -> list[float]:
    """bound, and bound -+ 2^-40 and -+ 1e-2 units."""
    return [bound + d * unit for d in (-1e-2, -(2**-40), 0.0, 2**-40, 1e-2)]


def draw_cases(count: int, seed: int) -> list[dict]:
    rng = random.Random(seed)
    windows = random.Random(f"period3-{seed}")
    margins = random.Random(f"period12-{seed}")
    cases = []
    for k in range(count):
        name = MAPS[k % len(MAPS)]
        threshold = rng.choice(
            near(rng.choice(TRAP_BOUNDS[name]))
            + [10 ** rng.uniform(-2.0, 0.5), rng.uniform(0.5, 100.0)]
            + [1e6, 1e300]  # above 711**2, where early exit can keep an orbit at |Im z| >= 711
        )
        cx, cy = rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5)
        half = 10 ** rng.uniform(-4, 0.5)
        corners = [cx - half, cy - half, cx + half, cy + half]
        if rng.random() < 0.3:
            for i in rng.sample(range(4), rng.randint(1, 2)):
                corners[i] = rng.choice(CORNERS)
        if name == "mandelbrot" and rng.random() < 0.5:
            # the tile holding the row at Re c = -+m has the table's r^2:
            # thresholds on both sides of the radius below which early exit
            # tests every step
            m, radius_sq = rng.choice(ESCAPE_RADII_SQ)
            corners = [rng.choice((-m, m)), rng.choice((-m, m)), rng.uniform(-m, m), rng.uniform(-m, m)]
            threshold = rng.choice(near(radius_sq, radius_sq))
        elif name == "mandelbrot" and windows.random() < 0.6:
            # a window on a period-3 component, with thresholds on both sides
            # of the bound above which the kernel marks its interior
            centre, half = windows.choice(PERIOD3_CENTRES), 10 ** windows.uniform(-3.0, math.log10(0.15))
            corners = [centre.real - half, centre.imag - half, centre.real + half, centre.imag + half]
            threshold = windows.choice(near(TRAP_BOUNDS["mandelbrot"][0]) + [10.0])
        elif name == "mandelbrot" and margins.random() < 0.5:
            # a window on the cardioid, c = lam/2 - lam^2/4, or on the period-2
            # bulb, c = lam/4 - 1, where the cycle's multiplier is lam
            lam = cmath.rect(margins.choice(MARGIN_RADII), margins.uniform(-math.pi, math.pi))
            centre = margins.choice((lam / 2 - lam * lam / 4, lam / 4 - 1))
            half = 10 ** margins.uniform(-9.0, -3.0)
            corners = [centre.real - half, centre.imag - half, centre.real + half, centre.imag + half]
            threshold = margins.choice(near(TRAP_BOUNDS["mandelbrot"][0]) + [10.0])
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
    from trigiter import MANDELBROT, EscapeParams, TrigKind, _kernels, fractal

    fractal._usable_cpus = lambda: 4  # let 1-4 workers start as many threads
    default_tile = _kernels._TILE_CELLS  # read by the kernels and the row blocks
    digests = []
    for k, case in enumerate(cases):
        grid = case["grid"]
        _kernels._TILE_CELLS = {"default": default_tile, "rows": 1, "ragged": 3 * grid + 1}[case["tile"]]
        mapping = {"cos": TrigKind.COSINE, "sin": TrigKind.SINE, "mandelbrot": MANDELBROT}[case["name"]]
        params = EscapeParams(case["iterations"], case["threshold"], case["early_exit"])
        ps = fractal.scan_raw(*case["corners"], grid, mapping, params, workers=case["workers"])
        texts = [ps.mask.tobytes()] + [fractal.format_points(ps, p).encode("ascii") for p in (True, False)]
        texts += [run_cli(argv) for argv in cli_argvs(k, case)]
        digests.append([hashlib.sha256(t).hexdigest() for t in texts])
    return digests


REALS = (0.0, -0.0, 1.0, -1.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e308, -1e308, math.pi,
         math.inf, -math.inf, math.nan)
# not real numbers, or beyond the double range: "0.5" and True used to
# pass through float(), and 10**400 to raise OverflowError
REFUSED_REALS = ("0.5", True, 10**400)
KINDS = ({"kind": "cos"}, {"kind": "sin"})
REFUSED_KINDS = ("cos", None, {"kind": "mandelbrot"})
# 30.0 equals 30, the working order whose base series iterated_series builds first;
# True and False equal 1 and 0
REFUSED_COUNTS = (-1, 2.5, 30.0, "3", None, [8], True, False)
# every value a positive-and-finite real refuses; the text "1e-400" reads as 0.0
REFUSED_POSITIVE = (0.0, -0.0, "1e-400", -1.0, math.nan, math.inf)
# flags that are not True or False, and params that are not an EscapeParams:
# a flag used to be read by its truth value, and such a params to raise AttributeError
REFUSED_FLAGS = (None, 0, 1, 0.0, "no", "")
REFUSED_PARAMS = (None, "x", 50, [50, 10.0, False])
SMALL_SCAN = {"call": ["scan_raw", -2.0, -2.0, 2.0, 2.0, 3, {"kind": "cos"}]}
CALLS_PER_FUNCTION = 30


def draw_calls(seed: int) -> list[list]:
    """Library calls as [name, *args]; `decode` turns the tagged arguments into objects."""
    rng = random.Random(seed)

    def kind():
        return rng.choice(KINDS) if rng.random() < 0.9 else rng.choice(REFUSED_KINDS)

    def count(low, high):
        return rng.randint(low, high) if rng.random() < 0.9 else rng.choice((low - 1, high + 1, *REFUSED_COUNTS))

    def real(refused=REFUSED_REALS):
        return rng.choice((rng.choice(REALS + refused), rng.uniform(-4.0, 4.0), rng.uniform(-1e6, 1e6)))

    def positive(*accepted):
        return rng.choice(accepted) if rng.random() < 0.7 else rng.choice(REFUSED_POSITIVE)

    def start():
        if rng.random() < 0.5:
            return real()
        imag = rng.choice((rng.uniform(-3.0, 3.0), 800.0, -711.0, math.inf, math.nan))
        return {"complex": [rng.choice((rng.uniform(-3.0, 3.0), real(()))), imag]}

    def series():
        if rng.random() < 0.5:
            return {"call": [rng.choice(("cos_series", "sin_series")), rng.randint(0, 20)]}
        coeffs = [rng.uniform(-2.0, 2.0) for _ in range(rng.randint(1, 12))]
        return {"series": [coeffs, rng.choice((0.0, rng.uniform(0.0, 1e-3)))]}

    def table(order):
        entry = (lambda: rng.randint(-5, 5)) if rng.random() < 0.5 else (lambda: rng.uniform(-2.0, 2.0))
        return [entry() for _ in range(order + 1 - (rng.random() < 0.05))]

    def factors():
        order = rng.randint(0, 10)
        return [[table(order) for _ in range(rng.randint(0, 5))], order]

    drawers = {
        "iterate": lambda: [kind(), count(0, 300), start()],
        "iterated_derivative": lambda: [kind(), count(0, 300), real()],
        "cos_range": lambda: [count(1, 200)],
        "sin_envelope": lambda: [count(1, 200)],
        "second_derivative_at_zero": lambda: [count(1, 100)],
        # n = 50 composes 49 times at working order 30, about 0.1 s
        "iterated_series": lambda: [kind(), rng.choice((*range(13), 20, 50, -1)), count(0, 30)],
        "cos_series": lambda: [count(0, 170)],
        "sin_series": lambda: [count(0, 170)],
        "cauchy_product": lambda: [series(), series()],
        "product_nth_derivative": factors,
        "dottie": lambda: [
            positive(1e-12, 1e-6, 1e-15, 1e-17, 5e-324, 0.5, 2.0),
            {"method": rng.choice(("fixed-point", "newton"))},
            rng.choice((1, 2, 5, 70, 1000, 0, True)),
        ],
        "EscapeParams": lambda: [count(0, 100), positive(10.0, 1.0, 5e-324, 1e300), rng.random() < 0.5],
        "dottie_digits": lambda: [count(1, 64)],
        "extrema_locations": lambda: [kind(), count(1, 5), count(1, 50)],
        "intersection_distances": lambda: [count(1, 10)],
        "compose": lambda: [kind(), series()],
        "PowerSeries.__call__": lambda: [series(), real()],
    }
    calls = [[name, *draw()] for name, draw in drawers.items() for _ in range(CALLS_PER_FUNCTION)]
    # every refused count on every seed, after the draws have filled the caches
    for name in ("cos_range", "sin_envelope", "second_derivative_at_zero", "cos_series", "sin_series",
                 "dottie_digits", "intersection_distances"):
        calls += [[name, value] for value in REFUSED_COUNTS]
    # and every refused real in each place that takes one
    for value in REFUSED_REALS:
        calls += [["iterate", {"kind": "cos"}, 2, value], ["iterated_derivative", {"kind": "sin"}, 2, value],
                  ["dottie", value], ["EscapeParams", 50, value], ["PowerSeries", [1.0, value]],
                  ["PowerSeries", [1.0], value], ["PowerSeries.__call__", {"call": ["cos_series", 4]}, value]]
        for k in range(4):
            corners = [0.0, 0.0, 1.0, 1.0]
            corners[k] = value
            calls.append(["scan_raw", *corners, 2, {"kind": "cos"}])
    for value in REFUSED_FLAGS:
        calls += [["EscapeParams", 50, 10.0, value], ["format_points", SMALL_SCAN, value]]
    calls += [["scan_raw", 0.0, 0.0, 1.0, 1.0, 2, {"kind": "cos"}, value] for value in REFUSED_PARAMS]
    return calls


def decode(arg):
    """The object a drawn argument stands for: tagged dicts become library values."""
    import trigiter

    if isinstance(arg, list):
        return [decode(a) for a in arg]
    if not isinstance(arg, dict):
        return arg
    ((tag, value),) = arg.items()
    if tag == "complex":
        return complex(*value)
    if tag == "kind":
        return trigiter.MANDELBROT if value == "mandelbrot" else trigiter.TrigKind(value)
    if tag == "method":
        return trigiter.SolverMethod(value)
    if tag == "series":
        return trigiter.PowerSeries(*value)
    name, *args = value  # tag "call": a library call whose result is the argument
    return getattr(trigiter, name)(*decode(args))


def canon(value):
    """A JSON-able form of a result that keeps every bit of its floats."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, complex):
        return [value.real.hex(), value.imag.hex()]
    if isinstance(value, (int, str)):  # before the attribute tests: a str has `lower`
        return value
    if hasattr(value, "coefficients"):  # PowerSeries
        return [canon(value.coefficients), canon(value.tail_bound)]
    if hasattr(value, "lower"):  # RangeBound: its ends, not its repr
        return [canon(value.lower), canon(value.upper)]
    if hasattr(value, "residual"):  # FixedPointResult, before the tuples: it may be one
        return [canon(value.value), value.iterations, canon(value.residual), value.method.value]
    if isinstance(value, (list, tuple)):
        return [canon(v) for v in value]
    if hasattr(value, "threshold_sq"):  # EscapeParams
        return [value.iterations, canon(value.threshold_sq), value.early_exit]
    if hasattr(value, "mask"):  # PointSet
        return [value.mask.tolist(), canon(value.xs.tolist()), canon(value.ys.tolist())]
    raise TypeError(f"no canonical form for {type(value).__name__}")


def run_calls(calls: list[list]) -> list[str]:
    """Digest of each call's result, or of the type of the exception it raised."""
    import trigiter

    digests = []
    for name, *args in calls:
        try:
            function = functools.reduce(getattr, name.split("."), trigiter)  # "PowerSeries.__call__" too
            out = canon(function(*decode(args)))
        except Exception as exc:  # refused arguments are part of the draw
            out = ["raised", type(exc).__name__]
        digests.append(hashlib.sha256(json.dumps(out).encode("ascii")).hexdigest())
    return digests


def draw_argvs(seed: int) -> list[list[str]]:
    """Command lines of the library subcommands, refused and dash-led values included."""
    rng = random.Random(seed)

    def pick(*values):
        return str(rng.choice(values))

    def f():
        return pick("cos", "sin") if rng.random() < 0.9 else pick("tan", "COS", "")

    def n(low, high):
        return str(rng.randint(low, high)) if rng.random() < 0.85 else pick(low - 1, high + 1, -1, "1.5", "x")

    def real():
        if rng.random() < 0.6:
            return repr(rng.uniform(-5.0, 5.0))
        return pick("-0.5", "-1e-3", "-0", "-inf", "-Infinity", "nan", "-nan", "1e400", "abc", "")

    def value():
        if rng.random() < 0.5:
            return real()
        return pick("1+2j", "-1-2j", "-inf+1j", "0.3+800j", "-2.5j", "nanj", "1+j")

    def flag(name, text):
        return [f"{name}={text}"] if rng.random() < 0.3 else [name, text]

    def dottie():
        argv = ["dottie"]
        if rng.random() < 0.3:
            return argv + flag("--digits", n(1, 64))
        if rng.random() < 0.7:
            argv += flag("--tol", pick(1e-12, 1e-6, 1e-15, 1e-17, 5e-324, 0.5, 2.0, 0, -1e-3, "nan", "inf"))
        if rng.random() < 0.5:
            argv += flag("--method", pick("fixed-point", "newton", "bisect"))
        if rng.random() < 0.3:
            argv += flag("--max-iterations", n(1, 2000))
        return argv

    commands = {
        "dottie": dottie,
        "iterate": lambda: ["iterate", "--f", f(), *flag("--n", n(0, 300)), *flag("--v", value())],
        "derivative": lambda: ["derivative", "--f", f(), "--n", n(0, 300), *flag("--x", real())]
        + ["--check"] * (rng.random() < 0.5),
        "series": lambda: ["series", "--f", f(), "--order", pick(*range(13), 20, 101, -1), "--terms", n(0, 30)],
        "bounds": lambda: ["bounds", "--f", f(), *flag("--n", n(1, 200))],
        "extrema": lambda: ["extrema", "--f", f(), "--n", n(1, 5), "--periods", n(1, 40)],
    }
    return [draw() for draw in commands.values() for _ in range(CALLS_PER_FUNCTION)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("baseline", nargs="?", help="src directory of the checkout to compare against")
    parser.add_argument("--scans", type=int, default=1500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        job = json.load(sys.stdin)
        result = {"scans": run_cases(job["scans"]), "calls": run_calls(job["calls"])}
        result["argvs"] = [hashlib.sha256(run_cli(argv)).hexdigest() for argv in job["argvs"]]
        json.dump(result, sys.stdout)
        return 0
    if args.baseline is None:
        parser.error("the baseline src directory is required")
    job = {"scans": draw_cases(args.scans, args.seed), "calls": draw_calls(args.seed), "argvs": draw_argvs(args.seed)}
    here = pathlib.Path(__file__).resolve().parents[1] / "src"
    results = {}
    for label, src in (("baseline", args.baseline), ("checkout", str(here))):
        proc = subprocess.run(
            [sys.executable, __file__, "--worker"],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            check=True,
        )
        results[label] = json.loads(proc.stdout)
    differ = {}
    for section, cases in job.items():
        differ[section] = [k for k, (a, b) in enumerate(zip(results["baseline"][section], results["checkout"][section])) if a != b]
        for k in differ[section]:
            print("differs:", json.dumps(cases[k]))
    survivors = sum(1 for d in results["checkout"]["scans"] if d[1] != hashlib.sha256(b"").hexdigest())
    print(f"{len(job['scans'])} scans, {survivors} with survivors, {len(differ['scans'])} differ")
    print(f"{len(job['calls'])} library calls, {len(differ['calls'])} differ")
    print(f"{len(job['argvs'])} command lines, {len(differ['argvs'])} differ")
    return 1 if any(differ.values()) else 0

if __name__ == "__main__":
    sys.exit(main())
