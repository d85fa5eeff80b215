import math
import random
from fractions import Fraction

import mpmath
import pytest

import oracles
from trigiter import (
    PowerSeries,
    TailBoundError,
    TrigKind,
    cauchy_product,
    compose,
    cos_series,
    iterate,
    iterated_series,
    sin_series,
)
from trigiter.series import MAX_TRUNCATION

COS = TrigKind.COSINE
SIN = TrigKind.SINE


class TestPowerSeries:
    def test_construction_and_order(self):
        s = PowerSeries((1.0, 0.0, -0.5))
        assert s.order == 2
        assert s.coefficients == (1.0, 0.0, -0.5)
        assert s.tail_bound == 0.0

    def test_coefficients_are_coerced_and_frozen(self):
        s = PowerSeries((1, 2))
        assert s.coefficients == (1.0, 2.0)
        assert isinstance(s.coefficients, tuple)
        with pytest.raises(AttributeError):
            s.tail_bound = 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="constant"):
            PowerSeries(())
        with pytest.raises(ValueError, match="finite"):
            PowerSeries((1.0, math.inf))
        with pytest.raises(ValueError, match="tail_bound"):
            PowerSeries((1.0,), -0.1)

    def test_horner_evaluation(self):
        s = PowerSeries((1.0, 2.0, 3.0))
        assert s(0.0) == 1.0
        assert s(2.0) == 1.0 + 4.0 + 12.0
        assert s(2) == 17.0

    # "0.5" and True used to be taken, and 10**400 raised OverflowError
    @pytest.mark.parametrize(
        "value", ["0.5", True, None, 0.5 + 0j, 10**400, math.nan, -0.1, -math.inf], ids=repr
    )
    def test_tail_bound_refuses_what_is_not_a_real_at_least_zero(self, value):
        with pytest.raises(ValueError, match=r"^tail_bound must be >= 0, got "):
            PowerSeries((1.0,), value)

    @pytest.mark.parametrize("value", [0, 0.0, -0.0, 3, 1e-3, math.inf], ids=repr)
    def test_tail_bound_admits_zero_to_infinity(self, value):
        tail = PowerSeries((1.0,), value).tail_bound
        assert type(tail) is float and tail == value

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
    def test_evaluation_refuses_non_finite_points(self, value):
        with pytest.raises(ValueError, match=r"^x must be finite, got "):
            cos_series(4)(value)

    def test_derivative_extraction(self):
        s = cos_series(6)
        assert s.derivative_at_zero(0) == 1.0
        assert s.derivative_at_zero(2) == -1.0
        assert s.derivative_at_zero(4) == 1.0
        assert s.derivative_at_zero(1) == 0.0
        with pytest.raises(ValueError, match=r"^k must be a non-negative integer <= 6, got 7$"):
            s.derivative_at_zero(7)

    @pytest.mark.parametrize("k", [True, 2.0, -1, "1", None], ids=repr)
    def test_derivative_index_is_a_count(self, k):
        # True used to read c_1, 2.0 to fail indexing the tuple with TypeError
        with pytest.raises(ValueError, match=r"^k must be a non-negative integer <= 4, got "):
            cos_series(4).derivative_at_zero(k)

    def test_truncate_charges_tail(self):
        s = PowerSeries((1.0, -2.0, 0.5, 0.25), 0.1)
        t = s.truncate(1)
        assert t.coefficients == (1.0, -2.0)
        assert t.tail_bound == pytest.approx(0.1 + 0.75)
        with pytest.raises(ValueError, match="order"):
            s.truncate(5)  # truncate only crops

    def test_addition_aligns_orders(self):
        total = cos_series(12) + PowerSeries((0.0, 1.0, 2.0))
        assert total.order == 2
        assert total.coefficients[0] == 1.0
        assert total.coefficients[1] == 1.0

    def test_addition_takes_only_series(self):
        with pytest.raises(TypeError):
            cos_series(4) + 1.0


class TestBaseSeries:
    def test_cos_coefficients_exact(self):
        assert cos_series(4).coefficients == (1.0, 0.0, -0.5, 0.0, 1.0 / 24.0)
        assert cos_series(0).coefficients == (1.0,)

    def test_sin_coefficients_exact(self):
        assert sin_series(3).coefficients == (0.0, 1.0, 0.0, -1.0 / 6.0)

    def test_tail_bound_is_honest(self):
        for order in (4, 8, 12):
            s = cos_series(order)
            for i in range(-10, 11):
                x = i / 10.0
                assert abs(s(x) - math.cos(x)) <= s.tail_bound

    def test_tail_bound_shrinks(self):
        assert cos_series(12).tail_bound < cos_series(6).tail_bound < 1e-3

    def test_order_is_checked_before_the_cache(self):
        # the series are cached per order, and 8.0 == 8 would find the cached order-8 series
        assert cos_series(8) is cos_series(8)
        for order in (8.0, [8]):
            with pytest.raises(ValueError, match="order"):
                cos_series(order)


class TestCauchyProduct:
    def test_cos_squared(self):
        # cos^2 = 1/2 + cos(2x)/2: coefficients 1, 0, -1, 0, 1/3
        got = cauchy_product(cos_series(4), cos_series(4))
        expected = (1.0, 0.0, -1.0, 0.0, 1.0 / 3.0)
        for g, e in zip(got.coefficients, expected):
            assert g == pytest.approx(e, abs=1e-15)

    def test_pythagorean_identity(self):
        order = 12
        total = cauchy_product(cos_series(order), cos_series(order)) + cauchy_product(
            sin_series(order), sin_series(order)
        )
        assert total.coefficients[0] == pytest.approx(1.0, abs=1e-15)
        for c in total.coefficients[1:]:
            assert abs(c) <= 1e-15

    def test_result_has_min_order(self):
        got = cauchy_product(cos_series(8), sin_series(5))
        assert got.order == 5

    def test_one_is_identity(self):
        b = PowerSeries((2.0, -1.0, 0.25), 0.01)
        got = cauchy_product(PowerSeries((1.0, 0.0, 0.0)), b)
        assert got.coefficients == b.coefficients
        assert got.tail_bound == pytest.approx(b.tail_bound)

    def test_dropped_mass_joins_tail(self):
        a = PowerSeries((0.0, 1.0))
        product = cauchy_product(a, a)  # x^2 truncated to order 1
        assert product.coefficients == (0.0, 0.0)
        assert product.tail_bound == 1.0


class TestCompose:
    def test_identity_inner_preserves_outer(self):
        outer = cos_series(10)
        got = compose(COS, PowerSeries((0.0, 1.0) + (0.0,) * 9))
        assert got.coefficients == outer.coefficients

    def test_constant_term_is_outer_at_inner_constant(self):
        got = compose(COS, cos_series(30))
        assert got.coefficients[0] == math.cos(1.0)

    def test_quadratic_example(self):
        # cos(x^2) = 1 - x^4/2 + ...
        got = compose(COS, PowerSeries((0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)))
        assert got.coefficients[0] == 1.0
        assert got.coefficients[2] == 0.0
        assert got.coefficients[4] == pytest.approx(-0.5, abs=1e-15)

    def test_result_is_padded_to_the_inner_order(self):
        # the order-1 cos series is the constant 1, so no power of the inner reaches x
        got = compose(COS, PowerSeries((0.5, 0.25)))
        assert got.coefficients == (1.0, 0.0)

    def test_tail_bound_validates_truncation(self):
        wide = PowerSeries(tuple([1.0] * 4))  # l1 norm 4 >= order + 1
        with pytest.raises(TailBoundError, match="magnitude"):
            compose(COS, wide)

    def test_composition_error_within_tail(self):
        got = compose(COS, sin_series(12))
        for i in range(-10, 11):
            x = i / 10.0
            assert abs(got(x) - math.cos(math.sin(x))) <= got.tail_bound

    def test_inner_tail_is_charged_once(self):
        # cos is 1-Lipschitz, so an inner error of 1e-6 moves the result by at most 1e-6
        coefficients = sin_series(12).coefficients
        exact = compose(COS, PowerSeries(coefficients))
        blurred = compose(COS, PowerSeries(coefficients, 1e-6))
        assert blurred.tail_bound - exact.tail_bound == pytest.approx(1e-6, rel=1e-6)


class TestIteratedSeries:
    def test_single_iterate_is_base(self):
        assert iterated_series(COS, 1, 4).coefficients == cos_series(4).coefficients
        assert iterated_series(SIN, 1, 5).coefficients == sin_series(5).coefficients

    def test_double_cosine_low_coefficients(self):
        s = iterated_series(COS, 2, 2)
        assert abs(s.coefficients[0] - math.cos(1.0)) <= 1e-12
        assert s.coefficients[1] == 0.0
        assert abs(s.coefficients[2] - math.sin(1.0) / 2.0) <= 1e-12

    def test_cosine_parity(self):
        for order in (1, 2, 3, 6):
            s = iterated_series(COS, order, 10)
            assert all(c == 0.0 for c in s.coefficients[1::2])

    def test_sine_parity_and_slope(self):
        for order in (1, 2, 3, 6):
            s = iterated_series(SIN, order, 9)
            assert all(c == 0.0 for c in s.coefficients[0::2])
            assert s.coefficients[1] == 1.0

    def test_triple_sine_known_coefficients(self):
        s = iterated_series(SIN, 3, 5)
        exact = oracles.sine_iterate_coefficients(3, 5)
        assert s.coefficients[3] == pytest.approx(float(exact[3]), abs=1e-14)
        assert s.coefficients[5] == pytest.approx(float(exact[5]), abs=1e-14)

    # Measured: at most 4.6 ulp (n = 5, x^27, truncation 30); every even
    # coefficient is exactly 0.
    SINE_ULP_BUDGET = 8

    @pytest.mark.parametrize("truncation", [2, 16, 30])
    @pytest.mark.parametrize("order", range(1, 7))
    def test_sine_coefficients_within_ulps_of_the_exact_ones(self, order, truncation):
        got = iterated_series(SIN, order, truncation).coefficients
        exact = oracles.sine_iterate_coefficients(order, truncation)
        for k, (c, e) in enumerate(zip(got, exact)):
            budget = self.SINE_ULP_BUDGET * Fraction(math.ulp(float(e))) if e else 0
            assert abs(Fraction(c) - e) <= budget, k

    def test_constant_term_is_orbit_point(self):
        for order in (2, 5, 30):
            s = iterated_series(COS, order, 0)
            assert s.coefficients[0] == pytest.approx(
                iterate(COS, order, 0.0), abs=5e-16
            )

    def test_deep_iterate_constant_approaches_fixed_point(self):
        from trigiter import DOTTIE

        s = iterated_series(COS, 30, 0)
        assert abs(s.coefficients[0] - DOTTIE) < 1e-4

    def test_evaluation_within_tail_bound(self):
        rng = random.Random(59)
        for kind, order, trunc in ((COS, 2, 8), (COS, 3, 10), (SIN, 4, 9)):
            s = iterated_series(kind, order, trunc)
            assert math.isfinite(s.tail_bound) and s.tail_bound > 0.0
            for _ in range(200):
                x = rng.uniform(-1.0, 1.0)
                assert abs(s(x) - iterate(kind, order, x)) <= s.tail_bound

    def test_order_zero_is_identity_series(self):
        s = iterated_series(COS, 0, 3)
        assert s.coefficients == (0.0, 1.0, 0.0, 0.0)

    def test_order_zero_cropped_to_a_constant(self):
        # x on |x| <= 1, cropped to the constant 0, keeps |x| as its tail
        s = iterated_series(SIN, 0, 0)
        assert s.coefficients == (0.0,)
        assert s.tail_bound == 1.0

    def test_second_derivative_link(self):
        # series curvature at 0 equals the closed-form second derivative
        from trigiter import second_derivative_at_zero

        for order in (2, 3, 8):
            s = iterated_series(COS, order, 2)
            assert s.derivative_at_zero(2) == pytest.approx(
                second_derivative_at_zero(order), rel=1e-10
            )

    def test_input_validation(self):
        with pytest.raises(ValueError):
            iterated_series(COS, -1, 4)
        with pytest.raises(ValueError):
            iterated_series(COS, 2, -1)

    def test_truncation_capped_where_factorials_leave_the_double_range(self):
        # 171! exceeds the largest double; the cap turns that overflow into a ValueError
        assert iterated_series(COS, 1, MAX_TRUNCATION).order == MAX_TRUNCATION
        for call in (
            lambda: iterated_series(COS, 3, MAX_TRUNCATION + 1),
            lambda: cos_series(MAX_TRUNCATION + 1),
            lambda: sin_series(MAX_TRUNCATION + 1),
            lambda: compose(SIN, PowerSeries((0.0,) * (MAX_TRUNCATION + 2))),
        ):
            with pytest.raises(ValueError, match=f"<= {MAX_TRUNCATION}"):
                call()


class TestExactSineOracle:
    """oracles.sine_iterate_coefficients: each coefficient of sin^n as a polynomial in n."""

    def test_equals_direct_composition(self):
        # nodes n = 0..(k - 1) // 2 for x^k, the other n up to 16 interpolated
        direct = oracles.sine_compositions(16, 31)
        for n, series in enumerate(direct):
            assert oracles.sine_iterate_coefficients(n, 31) == series, n

    def test_low_coefficients_in_closed_form(self):
        for n in range(0, 40, 3):
            c = oracles.sine_iterate_coefficients(n, 5)
            assert c[:3] == [0, 1, 0] and c[4] == 0
            assert c[3] == Fraction(-n, 6)
            assert c[5] == Fraction(n * (5 * n - 4), 120)

    def test_minus_one_is_arcsin(self):
        # the polynomials hold for every integer n; sin^-1 = arcsin = sum (2m)! / (4^m m!^2 (2m + 1)) x^(2m+1)
        c = oracles.sine_iterate_coefficients(-1, 21)
        for m in range(11):
            assert c[2 * m + 1] == Fraction(math.factorial(2 * m), 4**m * math.factorial(m) ** 2 * (2 * m + 1))


def cosine_iterates_to_degree(n, degree):
    """cos^1 .. cos^n, each the list of its Maclaurin coefficients c_0 .. c_degree, in mpmath.

    Each step expands cos about the inner series' constant term c_0:
    cos(c_0 + g) = sum_j cos^(j)(c_0) g^j / j!, where g has no constant
    term, so the coefficients up to `degree` are exact at the working
    precision.
    """
    series, chain = [mpmath.mpf(0), mpmath.mpf(1)] + [mpmath.mpf(0)] * (degree - 1), []  # x itself
    for _ in range(n):
        g = [mpmath.mpf(0)] + series[1:]
        power, result = [mpmath.mpf(1)] + [mpmath.mpf(0)] * degree, [mpmath.mpf(0)] * (degree + 1)
        for j in range(degree + 1):
            derivative = mpmath.cos(series[0] + j * mpmath.pi / 2) / mpmath.factorial(j)
            result = [r + derivative * p for r, p in zip(result, power)]
            power = [sum(power[i] * g[k - i] for i in range(k + 1)) for k in range(degree + 1)]
        series = result
        chain.append(series)
    return chain


class TestCosineCoefficientsShrinkAtTheMultiplier:
    """c_k(n+1) / c_k(n) -> lambda = -sin D for the Maclaurin coefficients of cos^n.

    D is an attracting fixed point of cos with multiplier lambda, and
    Koenigs linearization gives cos^n(x) - D = phi^-1(lambda^n phi(x)),
    so c_k(n) = lambda^n (a_k + b_k lambda^n + O(lambda^2n)) for k >= 1,
    and the ratio minus lambda shrinks as lambda^n.
    """

    LAST = 60

    def test_the_ratios_converge_to_minus_sin_dottie(self):
        chain = [cos_series(30)]  # cos^1 .. cos^(LAST + 1), as iterated_series builds them
        while len(chain) <= self.LAST:
            chain.append(compose(COS, chain[-1]))
        assert chain[11].coefficients == iterated_series(COS, 12, 30).coefficients
        with mpmath.workdps(50):
            reference = cosine_iterates_to_degree(self.LAST + 1, 8)
            multiplier = -mpmath.sin(mpmath.findroot(lambda t: mpmath.cos(t) - t, mpmath.mpf("0.739")))
            for k in (2, 4, 6, 8):
                scaled = {}
                for n in range(10, self.LAST + 1):
                    want = reference[n][k] / reference[n - 1][k]
                    got = chain[n].coefficients[k] / chain[n - 1].coefficients[k]
                    # measured: within 5e-6 of the ratio's distance from lambda
                    assert abs(got - want) <= 1e-4 * abs(want - multiplier), (k, n)
                    scaled[n] = (want - multiplier) / multiplier**n
                # measured 0.29438, -2.41575, 0.51027 and 4.58211, agreeing to 4e-7
                assert abs(scaled[40] - scaled[60]) <= 1e-5 * abs(scaled[60]), (k, scaled[40], scaled[60])
