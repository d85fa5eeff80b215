"""Seeded request generators for the benchmark workloads.

A workload is built from cycles.  Every cycle has the same fixed
composition (grid sizes, iteration counts, call kinds and sizes); the
seed only draws the free parameters (regions, windows, truncations,
table entries, arguments) and the order inside the cycle.  That keeps
the cost mix of a run independent of the seed, so runs with different
seeds are comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Each composition is laid out so that the median and the reported tail
# percentile fall inside a block of requests of one cost class, not on a
# step between classes; otherwise they jump between runs.

# legacy-dense: grids from 250 to 1000, weighted to the small end so a
# run holds enough requests for a tail percentile (p50 falls among the
# 250s, p75 among the 300s).  Map kinds alternate by position, so the
# survivor mix of a cycle does not depend on the seed.
LEGACY_GRIDS = (250,) * 10 + (300,) * 3 + (400, 500, 1000)

# mandelbrot-escape: (grid, iterations, window) per request; p50 falls
# in the middle class and p90 in the top one.  Windows are (centre re,
# centre im, half-width): the full plane, or a window on the boundary of
# the set that is mostly outside it, so most orbits escape within a few
# steps.
_PLANE = (-0.6, 0.0, 1.9)
_BOUNDARY = ((-2.0, 0.0, 0.3), (-0.1, 1.0, 0.3), (-0.2, -1.05, 0.3), (-1.8, 0.05, 0.3))
MANDELBROT_CASES = (
    tuple((200, 200, w) for w in (_PLANE, *_BOUNDARY))
    + tuple((250, 300, w) for w in (_PLANE, *_BOUNDARY))
    + ((300, 400, _PLANE), (300, 400, _BOUNDARY[1]))
)
MANDELBROT_WORKERS = 2

# Cycles of distinct requests in one run.  A run sends them in passes,
# the same requests in the same order each pass.
CYCLES_PER_RUN = {"legacy-dense": 1, "mandelbrot-escape": 2, "calculus": 1}

# The tail percentile each workload reports: it falls inside the top cost
# block of the run's distinct requests.  It is fixed, not chosen from a run's sample count,
# so every run and every commit reports the same percentile.
TAIL_PERCENTILE = {"legacy-dense": 75, "mandelbrot-escape": 90, "calculus": 95}

# calculus: one cycle of 100 library calls.  Sorted by cost, 30 calls
# take microseconds, then 40 dottie_digits calls (0.3-0.9 ms) hold the
# median in the middle of their block, then the series and the smaller
# products; seven (8, 12) products on top hold the p95 tail.  A single heavier product, such as (10, 12) at about
# 1.5 s, would sit alone above that block and dominate the run's program
# time.
#
# iterated_series runs for cos at n = 1..12 and sin at n = 1..6, with a
# truncation in 2..30 (2..16 at n = 1).  Every other case of that grid
# fails today (ROADMAP item 4): sin at n >= 7 raises TailBoundError, and
# at n = 1 a truncation of 17 or more gives a tail_bound below the
# observed error.  Those cases stay out of the timed loop, where no
# request may fail, and SERIES_PROBE counts them in every run instead.
SERIES_ORDERS = tuple(range(1, 13))
SERIES_CASES = tuple(("cos", n) for n in SERIES_ORDERS) + tuple(("sin", n) for n in range(1, 7))
SERIES_TRUNCATIONS = {1: (2, 16)}  # order -> (lowest, highest); default (2, 30)
SERIES_PROBE = tuple((kind, n, t) for kind in ("cos", "sin") for n in SERIES_ORDERS for t in (2, 16, 30))
PRODUCT_SIZES = ((1, 12), (2, 12), (3, 12), (4, 12), (5, 12), (6, 12), (7, 11), (9, 6), (10, 6)) + ((8, 12),) * 7
DIGITS_PER_CYCLE = 40
DOTTIE_PER_CYCLE = 4
ITERATE_REAL_PER_CYCLE = 4
ITERATE_COMPLEX_PER_CYCLE = 2
DERIVATIVE_PER_CYCLE = 4
RANGE_PER_CYCLE = 6
ENVELOPE_PER_CYCLE = 6


@dataclass(frozen=True)
class ScanSpec:
    """What a scan request asks for, as the benchmark's own checks need it."""

    x1: float
    y1: float
    x2: float
    y2: float
    grid: int
    mapping: str  # "cos", "sin" or "mandelbrot"
    iterations: int = 50
    threshold: float = 10.0
    early_exit: bool = False
    padded: bool = True  # gnuplot (25-column) lines, else plain


@dataclass(frozen=True)
class Request:
    """One request: a CLI argv (scans) or a library call (calculus).

    `label` names the inputs independently of machine settings such as
    the worker count; frozen digests are keyed by it.
    """

    label: str
    argv: tuple[str, ...] = ()
    scan: ScanSpec | None = None
    threads: int = 0
    call: str = ""
    args: tuple = ()


def _corners(cx: float, cy: float, half: float) -> tuple[str, str, str, str]:
    return tuple(f"{v:.4f}" for v in (cx - half, cy - half, cx + half, cy + half))


def legacy_dense(rng, cpu_count: int) -> list[Request]:
    """`legacy x1 y1 x2 y2 grid cos|sin` around the classic [-2.5, 2.5] square."""
    requests = []
    for k, grid in enumerate(LEGACY_GRIDS):
        name = "cos" if k % 2 == 0 else "sin"
        corners = _corners(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1), rng.uniform(2.45, 2.55))
        argv = ("legacy", *corners, str(grid), name)
        x1, y1, x2, y2 = (float(c) for c in corners)
        spec = ScanSpec(x1, y1, x2, y2, grid, name)
        # legacy takes no --workers flag: scan_raw splits rows over os.cpu_count() threads
        requests.append(Request(" ".join(argv), argv, spec, min(cpu_count, grid)))
    rng.shuffle(requests)
    return requests


def mandelbrot_escape(rng, workers: int) -> list[Request]:
    """`mandelbrot --early-exit --format plain` over full-plane and boundary windows."""
    requests = []
    for grid, iterations, (cx, cy, half) in MANDELBROT_CASES:
        jitter = 0.05 * half
        corners = _corners(
            cx + rng.uniform(-jitter, jitter), cy + rng.uniform(-jitter, jitter), half * rng.uniform(0.9, 1.1)
        )
        region = ",".join(corners)
        flags = ("--early-exit", "--format", "plain", "--iterations", str(iterations), "--grid", str(grid))
        argv = ("mandelbrot", *flags, "--workers", str(workers), "--region", region)
        label = " ".join(("mandelbrot", *flags, "--region", region))
        x1, y1, x2, y2 = (float(c) for c in corners)
        spec = ScanSpec(x1, y1, x2, y2, grid, "mandelbrot", iterations, early_exit=True, padded=False)
        requests.append(Request(label, argv, spec, min(workers, grid)))
    rng.shuffle(requests)
    return requests


def call(name: str, *args) -> Request:
    return Request(f"{name}{args!r}", call=name, args=args)


def calculus(rng) -> list[Request]:
    """Library calls only: series, product derivatives and iteration."""
    requests = []
    for kind, n in SERIES_CASES:
        requests.append(call("iterated_series", kind, n, rng.randint(*SERIES_TRUNCATIONS.get(n, (2, 30)))))
    for m, n in PRODUCT_SIZES:
        tables = tuple(tuple(rng.randint(-9, 9) for _ in range(n + 1)) for _ in range(m))
        requests.append(call("product_nth_derivative", tables, n))
    for k in range(DIGITS_PER_CYCLE):  # one draw from each stretch of 1..64
        requests.append(call("dottie_digits", 1 + (64 * k + rng.randrange(64)) // DIGITS_PER_CYCLE))
    for k in range(DOTTIE_PER_CYCLE):
        method = "fixed-point" if k % 2 == 0 else "newton"
        requests.append(call("dottie", 10.0 ** -rng.randint(3, 15), method))
    for k in range(ITERATE_REAL_PER_CYCLE):
        kind = "cos" if k % 2 == 0 else "sin"
        requests.append(call("iterate", kind, rng.randint(1, 60), rng.uniform(-10.0, 10.0)))
    for k in range(ITERATE_COMPLEX_PER_CYCLE):
        kind = "cos" if k % 2 == 0 else "sin"
        z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5))
        requests.append(call("iterate", kind, rng.randint(1, 8), z))
    for k in range(DERIVATIVE_PER_CYCLE):
        kind = "cos" if k % 2 == 0 else "sin"
        requests.append(call("iterated_derivative", kind, rng.randint(1, 12), rng.uniform(-3.0, 3.0)))
    for _ in range(RANGE_PER_CYCLE):
        requests.append(call("cos_range", rng.randint(2, 40)))
    for _ in range(ENVELOPE_PER_CYCLE):
        requests.append(call("sin_envelope", rng.randint(1, 40)))
    rng.shuffle(requests)
    return requests


def composition_terms(m: int, n: int) -> int:
    """Weak compositions of n into m parts: the terms the product rule sums today."""
    return math.comb(n + m - 1, m - 1)
