"""Truncated Maclaurin series with explicit tail error accounting.

A series is a finite coefficient tuple plus a tail bound: an estimate of
the sup-norm, on |x| <= 1, of everything the truncation discards.
Products convolve coefficients, composition substitutes a series into
the cos or sin series of its own order at full degree before cropping,
and both propagate tail bounds so Horner evaluation comes with an error
estimate.  Composition carries the inner tail bound through with
constant 1: cos and sin are 1-Lipschitz on the reals.

The estimate is not a proof.  It is computed in plain floats, and it
does not count the rounding of the coefficients: against mpmath at 40
digits, iterated_series(COSINE, 1, 20) has a tail bound of 8.9e-22 and
an observed error of 2.4e-18.  Its monomial magnitudes also grow fast
under sine composition, so iterated_series(SINE, n, 8) raises
TailBoundError from n = 7.  Item 1 of ROADMAP.md plans certified bounds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .iteration import MAX_TRUNCATION, TrigKind, _check_count, _check_kind, _check_real, _real

__all__ = [
    "PowerSeries",
    "TailBoundError",
    "cos_series",
    "sin_series",
    "cauchy_product",
    "compose",
    "iterated_series",
]


class TailBoundError(ValueError):
    """A composition's error bound diverges at the given truncation."""


def _exp_tail(magnitude: float, order: int) -> float:
    # sum_{k > order} magnitude^k / k!, bounded by the geometric tail
    # head / (1 - magnitude / (order + 2)); requires magnitude < order + 2,
    # which compose's TailBoundError check and the base series (magnitude 1) keep.
    head = 1.0
    for k in range(1, order + 2):
        head *= magnitude / k
    return head / (1.0 - magnitude / (order + 2))


@dataclass(frozen=True)
class PowerSeries:
    """Truncated Maclaurin series: coefficients c_0..c_N and a tail bound.

    `tail_bound` estimates |true function - polynomial part| on |x| <= 1
    (a float estimate, not a proven bound; see the module docstring).
    Instances are immutable; all arithmetic returns new series.
    """

    coefficients: tuple[float, ...]
    tail_bound: float = 0.0

    def __post_init__(self) -> None:
        coeffs = tuple(_check_real(c, "coefficients") for c in self.coefficients)
        if not coeffs:
            raise ValueError("need at least the constant coefficient")
        tail = _real(self.tail_bound, "tail_bound", ">= 0")
        if not tail >= 0.0:  # nan too
            raise ValueError(f"tail_bound must be >= 0, got {self.tail_bound!r}")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "tail_bound", tail)

    @property
    def order(self) -> int:
        """Truncation order N; the highest retained power."""
        return len(self.coefficients) - 1

    def __call__(self, x: float) -> float:
        """Horner evaluation of the polynomial part at a finite real `x`."""
        x = _check_real(x, "x")
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def derivative_at_zero(self, k: int) -> float:
        """k-th derivative at 0, recovered as k! times the coefficient."""
        _check_count(k, "k", 0, self.order)
        return self.coefficients[k] * math.factorial(k)

    def l1_norm(self) -> float:
        """Sum of coefficient magnitudes; bounds the polynomial on |x| <= 1."""
        return float(sum(abs(c) for c in self.coefficients))

    def truncate(self, order: int) -> "PowerSeries":
        """Crop to an order in 0..self.order, charging cropped mass to the tail."""
        _check_count(order, "order", 0, self.order)
        dropped = sum(abs(c) for c in self.coefficients[order + 1 :])
        return PowerSeries(self.coefficients[: order + 1], self.tail_bound + dropped)

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return NotImplemented
        order = min(self.order, other.order)
        a = self.truncate(order)
        b = other.truncate(order)
        coeffs = tuple(x + y for x, y in zip(a.coefficients, b.coefficients))
        return PowerSeries(coeffs, a.tail_bound + b.tail_bound)


def _trig_series(kind: TrigKind, order: int) -> PowerSeries:
    # checked before the cache, whose key 8 would also answer 8.0 or True
    _check_count(order, "order", 0, MAX_TRUNCATION)
    return _cached_trig_series(kind, order)


@functools.cache
def _cached_trig_series(kind: TrigKind, order: int) -> PowerSeries:
    # cos keeps the even powers (from k = 0), sin the odd ones (from k = 1);
    # built once per (kind, order) and shared, since PowerSeries is frozen
    coeffs = [0.0] * (order + 1)
    for k in range(0 if kind is TrigKind.COSINE else 1, order + 1, 2):
        coeffs[k] = (-1.0) ** (k // 2) / math.factorial(k)
    return PowerSeries(tuple(coeffs), _exp_tail(1.0, order))


def cos_series(order: int = 16) -> PowerSeries:
    """Maclaurin series of cos truncated at the given order."""
    return _trig_series(TrigKind.COSINE, order)


def sin_series(order: int = 17) -> PowerSeries:
    """Maclaurin series of sin truncated at the given order."""
    return _trig_series(TrigKind.SINE, order)


def cauchy_product(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Coefficient convolution of two series, cropped to the shorter order.

    The full convolution is computed first; mass cropped away joins the
    tail bound along with the cross terms of the input tails.
    """
    full = np.convolve(a.coefficients, b.coefficients)
    order = min(a.order, b.order)
    kept = tuple(float(c) for c in full[: order + 1])
    dropped = float(np.abs(full[order + 1 :]).sum())
    tail = (
        a.tail_bound * b.l1_norm()
        + b.tail_bound * a.l1_norm()
        + a.tail_bound * b.tail_bound
        + dropped
    )
    return PowerSeries(kept, tail)


def compose(kind: TrigKind, inner: PowerSeries) -> PowerSeries:
    """Substitute `inner` into the cos or sin series of its own order.

    The tail estimate relies on two properties of cos and sin: their
    Maclaurin coefficients obey |c_k| <= C / k! with C = 1, and they are
    1-Lipschitz on the reals, so the inner tail bound is carried into
    the result with constant 1.  inner.order is at most MAX_TRUNCATION.

    Powers of `inner` are accumulated at full polynomial degree and only
    cropped at the end.  Requires inner.order + 1 > the inner magnitude
    bound, else the error estimate diverges and TailBoundError is raised.
    """
    _check_kind(kind)
    outer = _trig_series(kind, inner.order)
    magnitude = inner.l1_norm() + inner.tail_bound
    if outer.order + 1 <= magnitude:
        raise TailBoundError(
            f"outer truncation order {outer.order} too small for inner magnitude "
            f"{magnitude:.6g}: the tail estimate needs order + 1 > magnitude"
        )

    inner_coeffs = np.asarray(inner.coefficients)
    acc = np.zeros(1)
    comp = np.zeros(1)
    power = np.ones(1)
    for k, ck in enumerate(outer.coefficients):
        if k > 0:
            power = np.convolve(power, inner_coeffs)
        if ck != 0.0:
            if acc.size < power.size:
                grow = power.size - acc.size
                acc = np.pad(acc, (0, grow))
                comp = np.pad(comp, (0, grow))
            # compensated accumulation keeps low-order coefficients
            # correctly rounded across the alternating outer terms
            contribution = ck * power - comp[: power.size]
            fresh = acc[: power.size] + contribution
            comp[: power.size] = (fresh - acc[: power.size]) - contribution
            acc[: power.size] = fresh
    if acc.size < outer.order + 1:
        acc = np.pad(acc, (0, outer.order + 1 - acc.size))
    kept = tuple(float(c) for c in acc[: outer.order + 1])
    dropped = float(np.abs(acc[outer.order + 1 :]).sum())

    tail = _exp_tail(magnitude, outer.order) + inner.tail_bound + dropped
    return PowerSeries(kept, tail)


def iterated_series(kind: TrigKind, order: int, truncation: int) -> PowerSeries:
    """Maclaurin series of the order-n cos or sin iterate.

    Composition is carried out at a working truncation of at least 30
    terms so low-order coefficients converge to full double precision,
    then cropped to `truncation`.  Cosine iterates keep only even
    powers; sine iterates only odd ones.  `truncation` is at most
    MAX_TRUNCATION.
    """
    _check_kind(kind)
    _check_count(order, "order")
    _check_count(truncation, "truncation", 0, MAX_TRUNCATION)
    if order == 0:
        # x itself; cropped to the constant 0, it keeps |x| <= 1 as its tail
        return PowerSeries((0.0, 1.0) + (0.0,) * (truncation - 1)).truncate(truncation)
    series = _trig_series(kind, max(truncation, 30))
    for _ in range(order - 1):
        series = compose(kind, series)
    return series.truncate(truncation)
