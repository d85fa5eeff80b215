"""Acceptance gate: ten checks, one pass/fail line each.

Run with `python3 -m pytest tests/test_acceptance.py -v -s` to see the
verdict lines.  Every check is self-contained and uses fixed seeds, so
the run is reproducible bit-for-bit.
"""

import math
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

from trigiter import (
    DOTTIE,
    SolverMethod,
    TrigKind,
    cauchy_product,
    cos_range,
    cos_series,
    dottie,
    iterate,
    iterated_derivative,
    iterated_series,
    product_nth_derivative,
    scan_raw,
    second_derivative_at_zero,
    sin_series,
    format_points,
)

COS = TrigKind.COSINE
SIN = TrigKind.SINE
GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_scan_5x5.txt"


class _Verdict:
    """Prints the criterion's PASS/FAIL line when the block exits."""

    def __init__(self, number: int, name: str):
        self.number = number
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] criterion {self.number} ({self.name}): {status}", flush=True)
        return False


def test_criterion_01_dottie_digits():
    with _Verdict(1, "dottie digits"):
        start = time.perf_counter()
        fixed = dottie(1e-12, SolverMethod.FIXED_POINT)
        newton = dottie(1e-12, SolverMethod.NEWTON)
        elapsed = time.perf_counter() - start
        assert f"{fixed.value:.12f}" == "0.739085133215"
        assert f"{newton.value:.12f}" == "0.739085133215"
        assert abs(fixed.value - newton.value) <= 2e-12
        assert elapsed < 1.0


def test_criterion_02_universal_attraction():
    with _Verdict(2, "universal attraction"):
        rng = random.Random(12)
        seeds = [rng.uniform(-1e6, 1e6) for _ in range(1000)]
        start = time.perf_counter()
        for v in seeds:
            assert abs(iterate(COS, 60, v) - DOTTIE) < 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0


def test_criterion_03_derivative_formula():
    with _Verdict(3, "derivative formula"):
        rng = random.Random(1)
        h = 1e-5
        for kind in (COS, SIN):
            for n in range(1, 13):
                for _ in range(100):
                    x = rng.uniform(-3.0, 3.0)
                    closed = iterated_derivative(kind, n, x)
                    fd = (iterate(kind, n, x + h) - iterate(kind, n, x - h)) / (2 * h)
                    assert abs(closed - fd) <= 1e-6 * max(abs(closed), abs(fd))
                    if kind is COS:
                        assert abs(closed) <= math.sin(1.0) ** (n - 1)


def test_criterion_04_range_bounds():
    with _Verdict(4, "range bounds"):
        rng = random.Random(4)
        for n in range(2, 13):
            bound = cos_range(n)
            for _ in range(200):
                x = rng.uniform(-100.0, 100.0)
                value = iterate(COS, n, x)
                assert bound.lower <= value <= bound.upper
        c1 = math.cos(1.0)
        c2 = math.cos(c1)
        c3 = math.cos(c2)
        for n, (lo, hi) in ((2, (c1, 1.0)), (3, (c1, c2)), (4, (c3, c2))):
            bound = cos_range(n)
            assert abs(bound.lower - lo) <= 1e-15
            assert abs(bound.upper - hi) <= 1e-15


def test_criterion_05_multinomial_rule():
    with _Verdict(5, "multinomial rule"):
        for m in range(1, 7):
            for n in range(0, 9):
                ones = [[1] * (n + 1)] * m
                assert product_nth_derivative(ones, n) == m**n
        rng = random.Random(5)
        for n in range(0, 11):
            f = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n + 1)]
            g = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n + 1)]
            leibniz = sum(
                math.comb(n, k) * f[k] * g[n - k] for k in range(n + 1)
            )
            assert product_nth_derivative([f, g], n) == leibniz


def test_criterion_06_series():
    with _Verdict(6, "series"):
        series = iterated_series(COS, 2, 8)
        assert abs(series.coefficients[0] - math.cos(1.0)) <= 1e-12
        assert abs(series.coefficients[2] - math.sin(1.0) / 2.0) <= 1e-12
        assert all(c == 0.0 for c in series.coefficients[1::2])
        for i in range(201):
            x = -1.0 + i / 100.0
            assert abs(series(x) - iterate(COS, 2, x)) <= series.tail_bound
        order = 8
        identity = cauchy_product(cos_series(order), cos_series(order)) + cauchy_product(
            sin_series(order), sin_series(order)
        )
        assert abs(identity.coefficients[0] - 1.0) <= 1e-15
        for c in identity.coefficients[1:]:
            assert abs(c) <= 1e-15


def test_criterion_07_second_derivative_at_zero():
    with _Verdict(7, "second derivative at zero"):
        assert abs(second_derivative_at_zero(2) - math.sin(1.0)) <= 1e-12
        values = [abs(second_derivative_at_zero(m)) for m in range(2, 41)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-6


def test_criterion_08_sine_collapse():
    with _Verdict(8, "sine collapse"):
        start = time.perf_counter()
        value = 1.0
        for _ in range(60000):
            nxt = math.sin(value)
            assert 0.0 < nxt < value
            value = nxt
        elapsed = time.perf_counter() - start
        assert value < 0.01
        assert elapsed < 1.0


def test_criterion_09_scanner_parity():
    with _Verdict(9, "scanner parity"):
        # warm any JIT cache outside the timed window
        scan_raw(-2.5, -2.5, 2.5, 2.5, 2, COS)
        start = time.perf_counter()
        outputs = {}
        for workers in (1, 2, 8):
            result = scan_raw(-2.5, -2.5, 2.5, 2.5, 500, COS, workers=workers)
            assert result.scanned == 250000
            outputs[workers] = format_points(result)
        elapsed = time.perf_counter() - start
        assert outputs[1] == outputs[2] == outputs[8]
        assert elapsed < 10.0

        rerun = scan_raw(-2.5, -2.5, 2.5, 2.5, 501, COS)
        # the imaginary axis values, recomputed independently
        ys = []
        y = -2.5
        for _ in range(501):
            ys.append(y)
            y += 5.0 / 500.0
        axis = min(range(501), key=lambda i: abs(ys[i]))
        assert bool(rerun.mask[:, axis].all())
        for i, yi in enumerate(ys):
            if yi == 0.0:
                assert bool(rerun.mask[:, i].all())


def test_criterion_10_golden_format():
    with _Verdict(10, "golden format"):
        proc = subprocess.run(
            [sys.executable, "-m", "trigiter", "legacy",
             "-2.5", "-2.5", "2.5", "2.5", "5", "cos"],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == GOLDEN.read_bytes()
        lines = proc.stdout.decode().splitlines()
        assert lines
        for line in lines:
            assert len(line) == 51
            left, right = line[:25], line[26:]
            assert left == "%25s" % left.strip()
            assert right == "%25s" % right.strip()
            for token in (left.strip(), right.strip()):
                assert token == "%.16g" % float(token)
