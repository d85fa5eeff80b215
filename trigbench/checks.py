"""Output checks, run after each request and outside its timed window.

Scans are checked against the benchmark's own reference pass (a
compacted numpy re-implementation of the escape rule that also counts
live orbit steps) and against the scalar oracles in tests/oracles.py on
sampled cells.  Calculus calls are checked against exact or
extended-precision references.
"""

from __future__ import annotations

import cmath
import decimal
import importlib.util
import json
import math
from pathlib import Path

import mpmath
import numpy as np

from workloads import ScanSpec

SAMPLED_CELLS = 24
TAIL_POINTS = 3
SERIES_TOLERANCE = 1e-12
TAIL_DIGITS = 40

# Request outcomes.  The two tail-bound classes are the known defects of
# the series certificate, which only the series probe meets; any failure
# of a timed request makes a run incorrect.
OK = "ok"
TAIL_BOUND_ERROR = "tail_bound_error"
TAIL_BOUND_VIOLATION = "tail_bound_violation"
FAILED = "failed"


def load_oracles(root: Path):
    """tests/oracles.py of the checkout, imported by path."""
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("trigbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------- scans


def grid_axes(spec: ScanSpec):
    """Cumulative-stepping axes: row origins (first sample, rest of row) and columns."""
    n = spec.grid
    step_re = (spec.x2 - spec.x1) / (n - 1)
    step_im = (spec.y2 - spec.y1) / (n - 1)
    ys = []
    y = spec.y1
    for _ in range(n):
        ys.append(y)
        y += step_im
    xs_first, xs_rest = [], []
    x = spec.x1
    for _ in range(n):
        xs_first.append(x)
        x = x + 0.0
        xs_rest.append(x)
        x = x + step_re
    return xs_first, xs_rest, ys


def reference_pass(spec: ScanSpec, xs_rest, ys):
    """Survival mask and live orbit steps, iterating only orbits still live.

    A step is live when its input is finite and, with early exit, below
    the threshold: the work an active-set kernel could not skip.
    """
    n = spec.grid
    a = np.repeat(np.asarray(xs_rest, dtype=np.float64), n)
    b = np.tile(np.asarray(ys, dtype=np.float64), n)
    cell = np.arange(n * n)
    mandelbrot = spec.mapping == "mandelbrot"
    if mandelbrot:
        cr, ci = a, b
        a, b = np.zeros_like(cr), np.zeros_like(ci)
    threshold = spec.threshold
    live = 0
    with np.errstate(all="ignore"):
        for _ in range(spec.iterations):
            if spec.early_exit:
                keep = a * a + b * b < threshold
            else:
                keep = np.isfinite(a) & np.isfinite(b)
            if not keep.all():
                a, b, cell = a[keep], b[keep], cell[keep]
                if mandelbrot:
                    cr, ci = cr[keep], ci[keep]
            live += a.size
            if spec.mapping == "cos":
                a, b = np.cos(a) * np.cosh(b), -np.sin(a) * np.sinh(b)
            elif spec.mapping == "sin":
                a, b = np.sin(a) * np.cosh(b), np.cos(a) * np.sinh(b)
            else:
                a, b = a * a - b * b + cr, 2.0 * a * b + ci
        final = a * a + b * b < threshold
    mask = np.zeros(n * n, dtype=bool)
    mask[cell[final]] = True
    return mask, live


def _line(spec: ScanSpec, re: float, im: float) -> bytes:
    re_s, im_s = "%.16g" % re, "%.16g" % im
    text = "%25s %25s\n" % (re_s, im_s) if spec.padded else f"{re_s} {im_s}\n"
    return text.encode()


class ScanChecker:
    def __init__(self, oracles):
        self.oracles = oracles

    def _oracle(self, spec: ScanSpec, z: complex) -> bool:
        if spec.mapping == "mandelbrot":
            # |z|^2 >= 10 > 4 means escape for z*z + c, so early exit never
            # drops a returning orbit and the plain final-value test agrees.
            return self.oracles.quadratic_survives(0j, z, spec.iterations, spec.threshold)
        return self.oracles.orbit_survives(z, spec.mapping, spec.iterations, spec.threshold)

    def check(self, spec: ScanSpec, out: bytes, rng):
        """Problems found (empty if none) and the reference counts."""
        n = spec.grid
        xs_first, xs_rest, ys = grid_axes(spec)
        mask, live = reference_pass(spec, xs_rest, ys)
        survivors = int(np.count_nonzero(mask))
        info = {"cells": n * n, "cell_steps": n * n * spec.iterations, "live_steps": live, "survivors": survivors}
        problems = []
        lines = out.count(b"\n")
        if lines != survivors:
            problems.append(f"{lines} output lines, reference has {survivors} survivors")
        if out and not out.endswith(b"\n"):
            problems.append("output does not end with a newline")
        if spec.padded:
            width = 52
            if len(out) != width * lines:
                problems.append("gnuplot lines are not 52 bytes each")
            starts = None
        else:
            ends = np.flatnonzero(np.frombuffer(out, dtype=np.uint8) == 10)
            starts = np.concatenate(([0], ends[:-1] + 1))

        def line_at(k: int) -> bytes:
            if k < 0 or k >= lines:
                return b""
            if starts is None:
                return out[width * k : width * (k + 1)]
            return out[starts[k] : ends[k] + 1]

        for _ in range(SAMPLED_CELLS):
            r, i = rng.randrange(n), rng.randrange(n)
            re = xs_first[r] if i == 0 else xs_rest[r]
            expected = self._oracle(spec, complex(re, ys[i]))
            flat = r * n + i
            if bool(mask[flat]) != expected:
                problems.append(f"cell ({r}, {i}): reference and scalar oracle disagree")
                continue
            line = _line(spec, re, ys[i])
            before = int(np.count_nonzero(mask[:flat]))
            if expected and line_at(before) != line:
                problems.append(f"cell ({r}, {i}) survives but is not output line {before}")
            if not expected and line in (line_at(before - 1), line_at(before)):
                problems.append(f"cell ({r}, {i}) escapes but is in the output")
        return problems, info


# ------------------------------------------------------------- calculus


def leibniz_product_derivative(tables, order: int):
    """n-th derivative of a product, folding factors in with the two-factor Leibniz rule."""
    acc = list(tables[0][: order + 1])
    for table in tables[1:]:
        acc = [
            sum(math.comb(j, i) * acc[i] * table[j - i] for i in range(j + 1))
            for j in range(order + 1)
        ]
    return acc[order]


def _mp_iterate(kind: str, n: int, x):
    f = mpmath.cos if kind == "cos" else mpmath.sin
    for _ in range(n):
        x = f(x)
    return x


def _float_iterate(kind: str, n: int, x: float) -> float:
    f = math.cos if kind == "cos" else math.sin
    for _ in range(n):
        x = f(x)
    return x


class CalculusChecker:
    def __init__(self, oracles, reference_path: Path):
        with open(reference_path) as fh:
            data = json.load(fh)
        self.series = {
            (kind, int(n)): [mpmath.mpf(c) for c in coeffs]
            for kind, by_order in data["iterated_series"].items()
            for n, coeffs in by_order.items()
        }
        self.dottie = oracles.decimal_dottie()
        self.dottie_float = float(self.dottie)

    def check(self, request, result, error, rng):
        """Outcome class and the problems found."""
        name, args = request.call, request.args
        if error is not None:
            if name == "iterated_series" and type(error).__name__ == "TailBoundError":
                return TAIL_BOUND_ERROR, [f"{request.label}: TailBoundError"]
            return FAILED, [f"{request.label}: {type(error).__name__}: {error}"]
        outcome = FAILED
        problems = getattr(self, "_" + name)(result, *args, rng=rng)
        if name == "iterated_series" and not problems:
            outcome = TAIL_BOUND_VIOLATION
            problems = self._tail_bound(result, *args, rng=rng)
        return (outcome if problems else OK), [f"{request.label}: {p}" for p in problems]

    def _iterated_series(self, series, kind, n, truncation, rng):
        coeffs = series.coefficients
        if len(coeffs) != truncation + 1:
            return [f"{len(coeffs)} coefficients, expected {truncation + 1}"]
        worst = max(abs(mpmath.mpf(c) - r) for c, r in zip(coeffs, self.series[(kind, n)]))
        if worst > SERIES_TOLERANCE:
            return [f"coefficient error {float(worst):.3g} against mpmath.taylor"]
        return []

    def _tail_bound(self, series, kind, n, truncation, rng):
        # observed error of the polynomial part, evaluated exactly, at seeded points
        with mpmath.workdps(TAIL_DIGITS):
            for _ in range(TAIL_POINTS):
                x = mpmath.mpf(rng.uniform(-1.0, 1.0))
                poly = mpmath.mpf(0)
                for c in reversed(series.coefficients):
                    poly = poly * x + mpmath.mpf(c)
                err = abs(_mp_iterate(kind, n, x) - poly)
                if err > series.tail_bound:
                    return [f"tail_bound {series.tail_bound:.3g} below observed error {float(err):.3g}"]
        return []

    def _product_nth_derivative(self, value, tables, order, rng):
        expected = leibniz_product_derivative(tables, order)
        return [] if value == expected else [f"{value} != pairwise Leibniz {expected}"]

    def _dottie_digits(self, text, digits, rng):
        quantum = decimal.Decimal(1).scaleb(-digits)
        expected = str(self.dottie.quantize(quantum, rounding=decimal.ROUND_HALF_EVEN))
        # all but the last digit are a prefix of the oracle; the last is rounded
        return [] if text == expected else [f"{text!r} != {expected!r}"]

    def _dottie(self, result, tolerance, method, rng):
        problems = []
        if abs(result.value - self.dottie_float) > 3 * tolerance + 1e-15:
            problems.append(f"value {result.value!r} off by more than 3 * tol")
        if not result.residual <= tolerance:
            problems.append(f"residual {result.residual!r} above tol {tolerance!r}")
        if result.method.value != method:
            problems.append(f"method {result.method.value!r}")
        return problems

    def _iterate(self, value, kind, n, start, rng):
        if isinstance(start, complex):
            f = cmath.cos if kind == "cos" else cmath.sin
            z = start
            for _ in range(n):
                z = f(z)
            return [] if abs(value - z) <= 1e-12 else [f"{value!r} != cmath orbit {z!r}"]
        expected = _float_iterate(kind, n, start)
        return [] if value == expected else [f"{value!r} != {expected!r}"]

    def _iterated_derivative(self, value, kind, n, x, rng):
        with mpmath.workdps(30):
            expected = float(mpmath.diff(lambda t: _mp_iterate(kind, n, t), mpmath.mpf(x)))
        if abs(value - expected) <= 1e-10 * abs(expected) + 1e-13:
            return []
        return [f"{value!r} != mpmath.diff {expected!r}"]

    def _cos_range(self, bound, n, rng):
        # the range of the n-th cosine iterate is attained at 0 and pi/2
        ends = sorted((_float_iterate("cos", n, 0.0), _float_iterate("cos", n, math.pi / 2)))
        problems = []
        if [bound.lower, bound.upper] != ends:
            problems.append(f"[{bound.lower!r}, {bound.upper!r}] != {ends!r}")
        for _ in range(4):
            v = _float_iterate("cos", n, rng.uniform(-10.0, 10.0))
            if not bound.lower - 1e-15 <= v <= bound.upper + 1e-15:
                problems.append(f"sampled value {v!r} outside the range")
        return problems

    def _sin_envelope(self, half, n, rng):
        # the order-(n+1) iterate touches the envelope at pi/2
        problems = []
        if half != _float_iterate("sin", n + 1, math.pi / 2):
            problems.append(f"{half!r} is not attained at pi/2 by the next iterate")
        for _ in range(4):
            v = _float_iterate("sin", n, rng.uniform(-1.0, 1.0))
            if abs(v) > half + 1e-16:
                problems.append(f"sampled value {v!r} outside the envelope")
        return problems
