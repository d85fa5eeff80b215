import cmath
import math
import random
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from decimal import ROUND_HALF_EVEN, Context, Decimal

import mpmath
import pytest

from trigiter import (
    DOTTIE,
    MANDELBROT,
    ConvergenceError,
    EscapeParams,
    PowerSeries,
    RangeBound,
    SolverMethod,
    TrigKind,
    compose,
    cos_range,
    cos_series,
    dottie,
    dottie_digits,
    extrema_locations,
    intersection_distances,
    iterate,
    iterated_derivative,
    iterated_series,
    scan_raw,
    sin_envelope,
    sin_series,
)
from trigiter import iteration
from oracles import decimal_dottie

COS = TrigKind.COSINE
SIN = TrigKind.SINE
# Arithmetic on the oracle's digits runs in this context, not in whatever
# precision the calling thread's decimal context holds.
WIDE = Context(prec=120)


class TestIterate:
    def test_order_zero_is_identity(self):
        assert iterate(COS, 0, 0.3) == 0.3
        assert iterate(SIN, 0, -1.7) == -1.7
        assert iterate(COS, 0, 1 + 2j) == 1 + 2j

    def test_small_orders(self):
        assert iterate(COS, 1, 0.0) == 1.0
        assert iterate(COS, 2, 0.0) == math.cos(1.0)
        assert iterate(SIN, 1, 2.0) == math.sin(2.0)
        assert iterate(SIN, 2, 2.0) == math.sin(math.sin(2.0))

    def test_matches_explicit_loop(self):
        rng = random.Random(7)
        for _ in range(50):
            x = rng.uniform(-8.0, 8.0)
            n = rng.randrange(0, 30)
            expected = x
            for _ in range(n):
                expected = math.cos(expected)
            assert iterate(COS, n, x) == expected

    def test_fixed_point_is_invariant(self):
        assert iterate(COS, 25, DOTTIE) == pytest.approx(DOTTIE, abs=1e-15)

    def test_parity_symmetry(self):
        rng = random.Random(11)
        for _ in range(30):
            x = rng.uniform(-5.0, 5.0)
            assert iterate(COS, 3, -x) == iterate(COS, 3, x)
            assert iterate(SIN, 3, -x) == -iterate(SIN, 3, x)

    def test_periodicity(self):
        rng = random.Random(13)
        for _ in range(20):
            x = rng.uniform(-2.0, 2.0)
            assert iterate(COS, 4, x + 2 * math.pi) == pytest.approx(
                iterate(COS, 4, x), abs=1e-12
            )
            assert iterate(SIN, 4, x + 2 * math.pi) == pytest.approx(
                iterate(SIN, 4, x), abs=1e-12
            )

    @pytest.mark.parametrize(
        "kind, f", [(COS, cmath.cos), (SIN, cmath.sin)], ids=["cos", "sin"]
    )
    def test_complex_matches_cmath(self, kind, f):
        rng = random.Random(17)
        for _ in range(30):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert iterate(kind, 3, z) == pytest.approx(f(f(f(z))), rel=1e-12)

    @pytest.mark.parametrize(
        "kind, start", [(COS, 800j), (SIN, 3 + 800j)], ids=["cos", "sin"]
    )
    def test_complex_overflow_returns_nonfinite(self, kind, start):
        value = iterate(kind, 2, start)
        assert isinstance(value, complex)
        assert not (math.isfinite(value.real) and math.isfinite(value.imag))

    @pytest.mark.parametrize("order", [0, 1, 3])
    @pytest.mark.parametrize("start", [math.inf, -math.inf, math.nan], ids=repr)
    def test_nonfinite_real_input_refused(self, order, start):
        # these returned nan (order 0: the start itself) before every real start was checked
        with pytest.raises(ValueError, match=r"^initial must be finite, got (-?inf|nan)$"):
            iterate(COS, order, start)
        with pytest.raises(ValueError, match=r"^at must be finite, got (-?inf|nan)$"):
            iterated_derivative(SIN, order, start)

    def test_negative_order_rejected(self):
        for order in (-1, -3):
            with pytest.raises(ValueError, match="non-negative"):
                iterate(COS, order, 0.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda kind: iterate(kind, 3, 0.5),
        lambda kind: iterated_derivative(kind, 3, 0.5),
        lambda kind: iterated_series(kind, 2, 8),
        lambda kind: extrema_locations(kind, 1),
        lambda kind: compose(kind, sin_series(8)),
    ],
    ids=["iterate", "iterated_derivative", "iterated_series", "extrema_locations", "compose"],
)
@pytest.mark.parametrize(
    "kind",
    ["cos", "sin", None, MANDELBROT, pytest.param(cos_series(8), id="cos_series(8)")],
    ids=repr,
)
def test_calculus_entry_points_refuse_anything_but_a_trig_kind(call, kind):
    # a name or the Mandelbrot map used to be iterated as sine (cosine for extrema)
    with pytest.raises(TypeError, match=re.escape(repr(kind))):
        call(kind)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: iterate(COS, True, 0.5), "order"),
        (lambda: dottie_digits(True), "digits"),
        (lambda: cos_series(True), "order"),
        (lambda: iterated_series(COS, True, 8), "order"),
        (lambda: iterated_series(COS, 2, False), "truncation"),
        (lambda: dottie(max_iterations=True), "max_iterations"),
        (lambda: EscapeParams(True), "iterations"),
        (lambda: scan_raw(-1, -1, 1, 1, 8, COS, workers=True), "workers"),
    ],
    ids=["iterate", "dottie_digits", "cos_series", "iterated_series", "truncation", "dottie",
         "EscapeParams", "scan_raw"],
)
def test_counts_refuse_bool(call, name):
    # True == 1 and False == 0, but a flag passed as a count is a caller's slip
    with pytest.raises(ValueError, match=rf"^{name} must be .*, got (True|False)$"):
        call()


# the text "1e-400" underflows to 0.0 when read
@pytest.mark.parametrize("value", [0, -0.0, "1e-400", -1e-9, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "call, name",
    [(dottie, "tolerance"), (lambda value: EscapeParams(threshold_sq=value), "threshold_sq")],
    ids=["dottie", "EscapeParams"],
)
def test_reals_refuse_what_is_not_positive_and_finite(call, name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be positive and finite, got .*5e-324$"):
        call(value)


REAL_INPUTS = {
    "iterate": (lambda value: iterate(COS, 2, value), "initial"),
    "iterated_derivative": (lambda value: iterated_derivative(COS, 2, value), "at"),
    "dottie": (dottie, "tolerance"),
    "EscapeParams": (lambda value: EscapeParams(threshold_sq=value), "threshold_sq"),
    "PowerSeries": (lambda value: PowerSeries((1.0, value)), "coefficients"),
}
NOT_REAL = {"str": "0.5", "True": True, "False": False, "None": None, "MANDELBROT": MANDELBROT}


# a str or a bool used to pass through float(), and EscapeParams kept a str
# until a scan raised TypeError; an int beyond the double range raised OverflowError
@pytest.mark.parametrize("value", list(NOT_REAL.values()), ids=list(NOT_REAL))
@pytest.mark.parametrize("call, name", list(REAL_INPUTS.values()), ids=list(REAL_INPUTS))
def test_reals_refuse_what_is_not_a_real_number(call, name, value):
    refusal = rf"^{name} must be (positive and )?finite, got .* not a real number\)"
    with pytest.raises(ValueError, match=refusal):
        call(value)


@pytest.mark.parametrize("value", [10**400, -(10**400), 2**1024], ids=["10**400", "-10**400", "2**1024"])
@pytest.mark.parametrize("call, name", list(REAL_INPUTS.values()), ids=list(REAL_INPUTS))
def test_reals_refuse_ints_beyond_the_double_range(call, name, value):
    refusal = rf"^{name} must be (positive and )?finite, got int value beyond the double range"
    with pytest.raises(ValueError, match=refusal):
        call(value)


@pytest.mark.parametrize("call, name", list(REAL_INPUTS.values())[1:], ids=list(REAL_INPUTS)[1:])
def test_complex_is_a_real_only_as_an_iterate_start(call, name):
    with pytest.raises(ValueError, match=rf"^{name} must be .*\(complex, not a real number\)"):
        call(0.5 + 0j)
    assert iterate(COS, 2, 0.5 + 0j) == complex(math.cos(math.cos(0.5)), -0.0)


def test_reals_are_held_as_floats():
    assert type(EscapeParams(threshold_sq=10).threshold_sq) is float
    assert EscapeParams(threshold_sq=10).threshold_sq == 10.0
    assert type(iterate(COS, 0, 3)) is float


class TestDottie:
    def test_fixed_point_solver(self):
        result = dottie(1e-12)
        assert result.method is SolverMethod.FIXED_POINT
        assert result.value == 0.7390851332147726
        assert result.iterations == 70
        assert result.residual <= 1e-12
        assert f"{result.value:.12f}" == "0.739085133215"

    def test_newton_solver(self):
        result = dottie(1e-12, SolverMethod.NEWTON)
        assert result.value == 0.7390851332151607
        assert result.iterations == 4
        assert result.residual <= 1e-12

    def test_newton_converges_faster(self):
        assert (
            dottie(1e-12, SolverMethod.NEWTON).iterations
            < dottie(1e-12, SolverMethod.FIXED_POINT).iterations
        )

    def test_methods_agree(self):
        fp = dottie(1e-12).value
        nw = dottie(1e-12, SolverMethod.NEWTON).value
        assert abs(fp - nw) <= 2e-12

    def test_residual_definition(self):
        result = dottie(1e-10)
        assert abs(math.cos(result.value) - result.value) == result.residual

    def test_value_is_arccos_fixed_point_too(self):
        value = dottie(1e-12, SolverMethod.NEWTON).value
        assert abs(math.acos(value) - value) <= 1e-11

    def test_tiny_tolerance_still_converges(self):
        # float cosine reaches an exact fixed point, so even the
        # smallest positive tolerance is achievable
        result = dottie(5e-324)
        assert result.residual == 0.0
        assert math.cos(result.value) == result.value

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError, match="positive"):
            dottie(0.0)
        with pytest.raises(ValueError, match="positive"):
            dottie(-1e-9)
        with pytest.raises(ValueError, match="e-324"):
            dottie(float("1e-400"))  # underflows to zero
        with pytest.raises(ValueError):
            dottie(math.nan)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method 'newton'"):
            dottie(1e-12, "newton")  # the name, not SolverMethod.NEWTON

    @pytest.mark.parametrize("exponent", range(1, 16))
    def test_fixed_point_value_is_the_cosine_orbit_of_zero(self, exponent):
        result = dottie(10.0**-exponent)
        assert result.value == iterate(COS, result.iterations, 0.0)

    def test_iteration_cap_names_best_residual(self):
        with pytest.raises(ConvergenceError, match="best residual"):
            dottie(1e-15, max_iterations=10)

    def test_constant_matches_double_rounding(self):
        assert DOTTIE == 0.7390851332151607
        assert math.cos(DOTTIE) == DOTTIE


class TestDottieDigits:
    def test_against_decimal_newton(self):
        ours = Decimal(dottie_digits(64))
        oracle = decimal_dottie(90)
        assert abs(ours - oracle) < Decimal(10) ** -63

    def test_prefix_stability(self):
        assert dottie_digits(13).startswith("0.739085133215")
        assert dottie_digits(64).startswith("0.739085133215")

    def test_float_rounding_agrees(self):
        assert float(dottie_digits(20)) == DOTTIE

    def test_enclosure_ends_that_round_apart_are_refused(self, monkeypatch):
        ends = (Decimal("0.73908513321516060"), Decimal("0.73908513321516070"))
        monkeypatch.setattr(iteration, "_dottie_enclosure", lambda: ends)
        assert dottie_digits(15) == "0.739085133215161"
        with pytest.raises(ConvergenceError, match="digit 16: 0.7390851332151606 vs 0.7390851332151607"):
            dottie_digits(16)

    def test_digit_validation(self):
        with pytest.raises(ValueError, match="64"):
            dottie_digits(65)
        with pytest.raises(ValueError):
            dottie_digits(0)

    @pytest.mark.parametrize("digits", range(1, iteration.MAX_DIGITS + 1))
    def test_every_digit_count_is_the_correctly_rounded_oracle(self, digits):
        oracle = decimal_dottie(90)
        expected = oracle.quantize(Decimal(1).scaleb(-digits), rounding=ROUND_HALF_EVEN, context=WIDE)
        assert dottie_digits(digits) == str(expected)

    def test_enclosure_holds_the_oracle_and_is_narrow(self):
        # the 90-digit oracle is off by about 1e-90, wider than the enclosure, so take 120 digits
        oracle = decimal_dottie(120)
        lower, upper = iteration._dottie_enclosure()
        assert lower <= oracle <= upper
        assert upper - lower < Decimal(10) ** -(iteration.MAX_DIGITS + 10)

    def test_newton_enclosure_of_a_box_around_the_root(self):
        oracle = decimal_dottie(120)
        lower, upper = iteration._newton_enclosure(str(oracle), "1e-80")
        assert lower <= oracle <= upper
        assert upper - lower < Decimal(10) ** -90

    @pytest.mark.parametrize(
        "offset, radius",
        [("1e-50", "1e-70"), ("-1e-50", "1e-70"), ("0", "inf")],
        ids=["above", "below", "unbounded"],
    )
    def test_newton_enclosure_refuses_a_box_it_cannot_prove(self, offset, radius):
        mid = str(WIDE.add(decimal_dottie(120), Decimal(offset)))
        with pytest.raises(ConvergenceError, match="proves no root"):
            iteration._newton_enclosure(mid, radius)

    def test_concurrent_first_calls_agree_and_leave_mpmath_precision(self):
        before = mpmath.mp.prec, mpmath.iv.prec
        iteration._dottie_enclosure.cache_clear()
        start = threading.Barrier(4)

        def first_call(_):
            start.wait()
            return dottie_digits(64)

        with ThreadPoolExecutor(4) as pool:
            texts = list(pool.map(first_call, range(4)))
        assert len(set(texts)) == 1
        expected = decimal_dottie(90).quantize(Decimal(1).scaleb(-64), rounding=ROUND_HALF_EVEN, context=WIDE)
        assert texts[0] == str(expected)
        assert (mpmath.mp.prec, mpmath.iv.prec) == before


class TestUniversalAttraction:
    def test_wide_seeds_converge(self):
        rng = random.Random(101)
        for _ in range(100):
            v = rng.uniform(-1e6, 1e6)
            assert abs(iterate(COS, 60, v) - DOTTIE) < 1e-9


class TestCosRange:
    def test_small_order_endpoints(self):
        c1 = math.cos(1.0)
        c2 = math.cos(c1)
        c3 = math.cos(c2)
        assert cos_range(1) == RangeBound(-1.0, 1.0)
        assert cos_range(2).lower == pytest.approx(c1, abs=1e-15)
        assert cos_range(2).upper == 1.0
        assert cos_range(3).lower == pytest.approx(c1, abs=1e-15)
        assert cos_range(3).upper == pytest.approx(c2, abs=1e-15)
        assert cos_range(4).lower == pytest.approx(c3, abs=1e-15)
        assert cos_range(4).upper == pytest.approx(c2, abs=1e-15)

    def test_containment(self):
        rng = random.Random(23)
        for order in range(1, 13):
            bound = cos_range(order)
            assert bound.lower < bound.upper
            for _ in range(200):
                x = rng.uniform(-30.0, 30.0)
                value = iterate(COS, order, x)
                assert bound.lower - 1e-15 <= value <= bound.upper + 1e-15

    def test_nesting_toward_fixed_point(self):
        widths = [cos_range(n).upper - cos_range(n).lower for n in range(2, 12)]
        assert all(b < a for a, b in zip(widths, widths[1:]))
        deep = cos_range(60)
        assert deep.lower == pytest.approx(DOTTIE, abs=1e-9)
        assert deep.upper == pytest.approx(DOTTIE, abs=1e-9)

    def test_one_orbit_matches_two(self):
        # the ends as two separate orbits of 1, the lower one longer for even n
        for n in range(2, 201):
            parity = n % 2
            lower = iterate(COS, n - 1 - parity, 1.0)
            upper = iterate(COS, n - 2 + parity, 1.0)
            bound = cos_range(n)
            assert (bound.lower.hex(), bound.upper.hex()) == (lower.hex(), upper.hex()), n

    def test_order_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            cos_range(0)


class TestSinEnvelope:
    def test_values(self):
        s1 = math.sin(1.0)
        assert sin_envelope(1) == s1
        assert sin_envelope(2) == math.sin(s1)

    def test_monotone_decreasing_positive(self):
        values = [sin_envelope(n) for n in (1, 2, 5, 10, 50)]
        assert all(v > 0 for v in values)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_contains_iterates(self):
        rng = random.Random(31)
        for order in (1, 2, 3, 7):
            half = sin_envelope(order)
            for _ in range(100):
                # order-n iterate of the unit interval stays inside
                assert abs(iterate(SIN, order, rng.uniform(-1.0, 1.0))) <= half + 1e-15
                # order-(n+1) iterate of anything stays inside
                x = rng.uniform(-20.0, 20.0)
                assert abs(iterate(SIN, order + 1, x)) <= half + 1e-15

    def test_envelope_is_attained(self):
        # sin(pi/2) is exactly 1.0 in floats, so the (n+1)-fold iterate
        # of pi/2 lands exactly on the envelope value
        for order in (1, 2, 5):
            assert iterate(SIN, order + 1, math.pi / 2) == sin_envelope(order)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            sin_envelope(0)


class TestIntersectionDistances:
    def test_first_order(self):
        short, long_ = intersection_distances(1)
        with mpmath.workdps(40):
            d = mpmath.findroot(lambda t: mpmath.cos(t) - t, 0.74)
            assert abs(short - float(2 * d)) <= 1e-15
            assert abs(long_ - float(2 * (mpmath.pi - d))) <= 1e-15

    def test_higher_orders(self):
        short, long_ = intersection_distances(5)
        with mpmath.workdps(40):
            d = mpmath.findroot(lambda t: mpmath.cos(t) - t, 0.74)
            assert abs(short - float(2 * d)) <= 1e-15
            assert abs(long_ - float(mpmath.pi - 2 * d)) <= 1e-15
        assert intersection_distances(2) == intersection_distances(9)

    def test_level_crossing_meaning(self):
        # the iterate really does cross its fixed-point level at the
        # spacings reported: check sign changes of iterate - D around
        # the predicted crossing points for order 2
        short, long_ = intersection_distances(2)
        crossings = [-DOTTIE, DOTTIE, math.pi - DOTTIE, math.pi + DOTTIE]
        for c in crossings:
            lo = iterate(COS, 2, c - 1e-6) - DOTTIE
            hi = iterate(COS, 2, c + 1e-6) - DOTTIE
            assert lo * hi < 0
        gaps = [b - a for a, b in zip(crossings, crossings[1:])]
        assert gaps[0] == pytest.approx(short, abs=1e-12)
        assert gaps[1] == pytest.approx(long_, abs=1e-12)
        assert gaps[2] == pytest.approx(short, abs=1e-12)

    def test_length_identity(self):
        _, long1 = intersection_distances(1)
        short_n, long_n = intersection_distances(4)
        assert abs(long1 - (2 * long_n + short_n)) <= 1e-12

    def test_order_validation(self):
        with pytest.raises(ValueError):
            intersection_distances(0)
