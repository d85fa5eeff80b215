"""Closed-form derivatives of iterated maps and the product derivative rule.

The chain rule collapses the first derivative of an n-fold cos or sin
iterate into a product over the forward orbit.  Higher derivatives of an
m-factor product follow from the Leibniz rule, applied one factor at a
time.  The second derivative at 0 of a cosine iterate is, by the chain
rule, minus the first derivative at 1 of the next lower iterate.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .iteration import TrigKind, _check_count, _check_kind, _check_real, _map_and_slope

__all__ = [
    "iterated_derivative",
    "product_nth_derivative",
    "second_derivative_at_zero",
    "extrema_locations",
]


def iterated_derivative(kind: TrigKind, order: int, at: float) -> float:
    """First derivative of the order-n cos or sin iterate at a real point.

    Chain rule product over the forward orbit: each cosine step
    contributes -sin(x_k), each sine step cos(x_k).  Order 0
    differentiates the identity, giving 1.  An `at` that is not a finite
    real number (nan, ±inf, a str, a bool, an int beyond the double
    range) raises ValueError.
    """
    _check_kind(kind)
    _check_count(order, "order")
    x = _check_real(at, "at")
    step, slope = _map_and_slope(kind)
    p = 1.0
    for _ in range(order):
        p *= slope(x)
        x = step(x)
    return p


def product_nth_derivative(factors: Sequence[Sequence[object]], order: int) -> object:
    """Order-n derivative of a pointwise product from per-factor derivative tables.

    `factors[k][j]` holds the j-th derivative of factor k at the point
    of interest, for j = 0..order.  Folds the factors in from left to
    right, each step the two-factor Leibniz rule on the derivatives
    0..order of the running product: O(m * order^2) operations for m
    factors.  The arithmetic is whatever the table entries support
    (int, Fraction, float, complex), so exact inputs give exact output.
    """
    if len(factors) < 1:
        raise ValueError("need at least one factor")
    _check_count(order, "order")
    for k, table in enumerate(factors):
        if len(table) < order + 1:
            raise ValueError(
                f"factor {k} supplies {len(table)} derivatives, need {order + 1}"
            )
    acc = list(factors[0][: order + 1])
    for table in factors[1:]:
        acc = [
            sum(math.comb(j, i) * acc[i] * table[j - i] for i in range(j + 1))
            for j in range(order + 1)
        ]
    return acc[order]


def second_derivative_at_zero(order: int) -> float:
    """Second derivative at 0 of the order-m cosine iterate.

    By the chain rule, (cos^m)''(0) = -(cos^(m-1))'(1), since the first
    step sends 0 to 1 with slope 0 and curvature -1: (-1)^m times the
    product of sin over the first m-1 cosine iterates of 1.  The
    magnitude decays geometrically in m.  Order 1 gives plain cos'' at
    0, which is -1.
    """
    _check_count(order, "order", 1)
    return -iterated_derivative(TrigKind.COSINE, order - 1, 1.0)


def extrema_locations(kind: TrigKind, order: int, periods: int = 1) -> list[float]:
    """Abscissas of the extrema of an iterate inside (-periods*pi, periods*pi).

    Only the first orbit factor of the derivative product can vanish
    for sine (deeper iterates stay inside (-1, 1), clear of pi/2), and
    only the first two can for cosine, so the loci form an arithmetic
    grid: odd multiples of pi/2 for sine iterates, all multiples of
    pi/2 for cosine iterates of order >= 2, and multiples of pi for
    plain cosine.  The interval is open at both ends.
    """
    _check_kind(kind)
    _check_count(order, "order", 1)
    _check_count(periods, "periods", 1)
    if kind is TrigKind.SINE:
        half = math.pi / 2.0
        return [half + j * math.pi for j in range(-periods, periods)]
    if order == 1:
        return [j * math.pi for j in range(-periods + 1, periods)]
    half = math.pi / 2.0
    return [j * half for j in range(-2 * periods + 1, 2 * periods)]
