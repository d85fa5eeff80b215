import math
import random
from fractions import Fraction

import mpmath
import pytest

import oracles
from trigiter import (
    TrigKind,
    extrema_locations,
    iterate,
    iterated_derivative,
    product_nth_derivative,
    second_derivative_at_zero,
)

COS = TrigKind.COSINE
SIN = TrigKind.SINE


def central_difference(kind, order, x, h=1e-6):
    return (iterate(kind, order, x + h) - iterate(kind, order, x - h)) / (2 * h)


class TestIteratedDerivative:
    def test_order_zero_is_one(self):
        assert iterated_derivative(COS, 0, 2.7) == 1.0
        assert iterated_derivative(SIN, 0, -0.4) == 1.0

    def test_single_application(self):
        assert iterated_derivative(COS, 1, math.pi / 2) == -1.0
        assert iterated_derivative(SIN, 1, 0.0) == 1.0
        x = 0.8
        assert iterated_derivative(COS, 1, x) == -math.sin(x)
        assert iterated_derivative(SIN, 1, x) == math.cos(x)

    def test_chain_rule_product_form(self):
        rng = random.Random(41)
        for _ in range(30):
            x = rng.uniform(-4.0, 4.0)
            expected = math.sin(x) * math.sin(math.cos(x))
            assert iterated_derivative(COS, 2, x) == pytest.approx(expected, rel=1e-14)

    def test_critical_point_of_second_iterate(self):
        assert iterated_derivative(COS, 2, math.pi / 2) == pytest.approx(0.0, abs=1e-15)

    def test_zero_at_origin_for_cosine(self):
        for order in range(1, 6):
            assert iterated_derivative(COS, order, 0.0) == 0.0

    def test_one_at_origin_for_sine(self):
        for order in range(1, 8):
            assert iterated_derivative(SIN, order, 0.0) == 1.0

    def test_finite_difference_agreement(self):
        rng = random.Random(43)
        for kind in (COS, SIN):
            for order in range(1, 13):
                for _ in range(25):
                    x = rng.uniform(-3.0, 3.0)
                    closed = iterated_derivative(kind, order, x)
                    fd = central_difference(kind, order, x)
                    assert abs(closed - fd) <= 1e-6 * (1.0 + abs(closed))

    def test_contraction_bound(self):
        # beyond the first step the orbit lives in [-1, 1], so each
        # factor is at most sin(1) in magnitude
        rng = random.Random(47)
        for order in range(1, 13):
            cap = math.sin(1.0) ** (order - 1)
            for _ in range(50):
                x = rng.uniform(-10.0, 10.0)
                assert abs(iterated_derivative(COS, order, x)) <= cap + 1e-15

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            iterated_derivative(COS, -2, 0.0)


class TestProductNthDerivative:
    def test_first_derivative_is_product_rule(self):
        u, v = [3.0, 5.0], [7.0, 11.0]
        assert product_nth_derivative([u, v], 1) == 5.0 * 7.0 + 3.0 * 11.0

    def test_second_derivative_is_leibniz(self):
        u, v = [2.0, 3.0, 5.0], [7.0, 11.0, 13.0]
        expected = 5.0 * 7.0 + 2 * 3.0 * 11.0 + 2.0 * 13.0
        assert product_nth_derivative([u, v], 2) == expected

    def test_leibniz_equivalence_exact(self):
        rng = random.Random(53)
        for order in range(0, 11):
            u = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(order + 1)]
            v = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(order + 1)]
            leibniz = sum(
                math.comb(order, k) * u[k] * v[order - k] for k in range(order + 1)
            )
            assert product_nth_derivative([u, v], order) == leibniz

    def test_coefficient_sum_is_power(self):
        for parts in range(1, 7):
            for order in range(0, 9):
                ones = [[1] * (order + 1)] * parts
                assert product_nth_derivative(ones, order) == parts**order

    def test_matches_multinomial_oracle(self):
        rng = random.Random(59)
        for parts in range(1, 7):
            for order in range(0, 9):
                ints = [[rng.randint(-9, 9) for _ in range(order + 1)] for _ in range(parts)]
                fracs = [
                    [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)]
                    for _ in range(parts)
                ]
                for tables in (ints, fracs):
                    got = product_nth_derivative(tables, order)
                    assert got == oracles.multinomial_product_derivative(tables, order)
                    assert type(got) is type(tables[0][0])

    @pytest.mark.parametrize("parts, order", [(10, 12), (12, 14)])
    def test_coefficient_sum_is_power_for_many_factors(self, parts, order):
        # C(n+m-1, m-1) multinomial terms: 1.4M for (12, 14), quick only as a fold
        ones = [[1] * (order + 1)] * parts
        assert product_nth_derivative(ones, order) == parts**order

    def test_three_factor_cross_check(self):
        # d^2/dx^2 of x^2 * sin(x) * e^x at x = 1 is 6e(sin 1 + cos 1)
        x = 1.0
        sq = [x * x, 2 * x, 2.0]
        sn = [math.sin(x), math.cos(x), -math.sin(x)]
        ex = [math.e, math.e, math.e]
        got = product_nth_derivative([sq, sn, ex], 2)
        expected = 6 * math.e * (math.sin(1.0) + math.cos(1.0))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            product_nth_derivative([], 1)
        with pytest.raises(ValueError, match="need 3"):
            product_nth_derivative([[1.0, 2.0]], 2)


class TestSecondDerivativeAtZero:
    def test_plain_cosine(self):
        assert second_derivative_at_zero(1) == -1.0

    def test_double_cosine_is_sin_one(self):
        assert abs(second_derivative_at_zero(2) - math.sin(1.0)) <= 1e-12

    def test_closed_form_product(self):
        # (-1)^m prod sin(cos-iterates of 1)
        for m in (3, 4, 7):
            orbit = 1.0
            p = 1.0
            for _ in range(m - 1):
                p *= math.sin(orbit)
                orbit = math.cos(orbit)
            expected = p if m % 2 == 0 else -p
            assert second_derivative_at_zero(m) == expected

    def test_finite_difference_agreement(self):
        h = 1e-4
        for m in range(1, 13):
            fd = (
                iterate(COS, m, h) - 2 * iterate(COS, m, 0.0) + iterate(COS, m, -h)
            ) / (h * h)
            got = second_derivative_at_zero(m)
            assert abs(got - fd) <= 1e-5 * (1.0 + abs(got))

    def test_decay(self):
        magnitudes = [abs(second_derivative_at_zero(m)) for m in range(2, 41)]
        assert all(b < a for a, b in zip(magnitudes, magnitudes[1:]))
        assert magnitudes[-1] < 1e-6

    def test_signs_alternate(self):
        for m in range(1, 10):
            value = second_derivative_at_zero(m)
            assert (value > 0) == (m % 2 == 0)

    def test_ratio_converges_at_the_rate_of_the_orbit(self):
        # r_m = -sin(cos^m(0)) and sin is 1-Lipschitz, so r_m is within
        # |cos^m(0) - D| of -sin D: the paper's rate, read off the
        # derivatives.  The slack, about 1 - cos D = 0.26 of that distance,
        # covers r_m's float rounding (up to about m ulp) only to m ~ 75;
        # the first observed failure is at m = 89.
        with mpmath.workdps(60):
            d = mpmath.findroot(lambda t: mpmath.cos(t) - t, mpmath.mpf("0.739"))
            x = mpmath.mpf(0)
            for m in range(1, 61):
                x = mpmath.cos(x)
                ratio = second_derivative_at_zero(m + 1) / second_derivative_at_zero(m)
                assert ratio < 0.0
                assert abs(ratio + mpmath.sin(d)) <= abs(x - d), m

    def test_validation(self):
        with pytest.raises(ValueError):
            second_derivative_at_zero(0)


class TestExtremaLocations:
    def test_third_cosine_iterate(self):
        assert extrema_locations(COS, 3, 1) == [-math.pi / 2, 0.0, math.pi / 2]

    def test_fourth_sine_iterate(self):
        assert extrema_locations(SIN, 4, 1) == [-math.pi / 2, math.pi / 2]

    def test_plain_cosine(self):
        assert extrema_locations(COS, 1, 1) == [0.0]
        assert extrema_locations(COS, 1, 2) == [-math.pi, 0.0, math.pi]

    def test_wider_window(self):
        loci = extrema_locations(COS, 2, 2)
        assert loci == [j * math.pi / 2 for j in range(-3, 4)]
        assert loci == sorted(loci)

    def test_derivative_vanishes_at_loci(self):
        for kind, order in ((COS, 2), (COS, 5), (SIN, 3), (SIN, 6)):
            for x in extrema_locations(kind, order, 2):
                assert abs(iterated_derivative(kind, order, x)) <= 1e-12

    def test_loci_are_extremal(self):
        for kind, order in ((COS, 3), (SIN, 4)):
            for x in extrema_locations(kind, order, 1):
                here = iterate(kind, order, x)
                near = [iterate(kind, order, x + d) for d in (-1e-4, 1e-4)]
                assert (here > max(near)) or (here < min(near))

    def test_validation(self):
        with pytest.raises(ValueError):
            extrema_locations(COS, 0, 1)
        with pytest.raises(ValueError):
            extrema_locations(SIN, 2, 0)
