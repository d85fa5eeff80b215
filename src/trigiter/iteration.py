"""Real and complex iteration of the cosine and sine maps.

The cosine map has a single real fixed point (the Dottie number), which
attracts every real orbit.  This module provides the iteration engine,
a double-precision fixed-point solver with a plain cosine step or a
Newton step, up to 64 decimal digits of the fixed point proven by an
interval-Newton enclosure that is built once per process and cached, and
closed forms for the range of high-order cosine iterates, the sine
iterate envelope, and the spacing of fixed-point-level crossings.

It imports no numpy, and it also declares what the command line checks
its flags against before any numpy module loads: the input caps of the
series and scan modules, the scan defaults and the MANDELBROT marker.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "DOTTIE",
    "TrigKind",
    "SolverMethod",
    "ConvergenceError",
    "FixedPointResult",
    "RangeBound",
    "iterate",
    "dottie",
    "dottie_digits",
    "cos_range",
    "sin_envelope",
    "intersection_distances",
]

DOTTIE = 0.7390851332151607
"""Fixed point of cos, correctly rounded to double precision."""

MAX_DIGITS = 64
"""Largest decimal precision served by :func:`dottie_digits`."""

_ENCLOSURE_BITS = 4 * MAX_DIGITS + 64
"""Working precision of the Dottie enclosure: its width is about 2**-320, far below 10**-MAX_DIGITS."""

MAX_TRUNCATION = 170
"""Largest truncation order of a series: k! converts to a double only up to k = 170."""

# The caps and defaults of the escape-time scans in `fractal`.  They live
# here, in a module without numpy, because the command line checks its
# flags against them before anything imports numpy.

# Worst-case memory of a scan's whole output as one string, as
# format_points returns it: a 52-byte gnuplot line for every cell, plus
# the cell's byte of mask.  format_points builds the string one row
# block at a time, so that is also its peak: over the resident size
# before the call it rose 55.8, 53.0 and 52.4 B/cell at grids 1000, 2000
# and 3000 where every cell survives (in-process ru_maxrss, Linux,
# Python 3.11).  The command line writes row blocks and holds only one.
# The scan itself holds the mask's 1 B/cell: each thread of a cos or sin
# scan writes the cells of its rows straight into the scan's mask, so
# the grid-4501 command line peaks at 55-57 MiB on one thread and 58-60
# MiB on two, the second thread adding only its working arrays.
# The grid is capped so that this stays within the budget, and the cap
# is checked before anything is allocated.
_SCAN_BUDGET_BYTES = 1 << 30
MAX_GRID = math.isqrt(_SCAN_BUDGET_BYTES // (52 + 1))

# A scan's work in cell-steps: grid * grid cells per iteration plus the
# fixed cost of the kernel's array calls in each step, counted as 1024
# cells.  On orbits that run every step, a cell-step takes 15-30 ns for
# cos and sin and 3-5 ns for Mandelbrot with or without early exit (real
# parameters in [-1.99, -1.41] at threshold 10), the fixed cost 5-13 us
# per step (2-vCPU Xeon, numpy 2.4).
# The budget, 10-40 s of one thread's kernel time, admits the legacy
# scanner's 50 iterations at MAX_GRID; it is checked before allocation.
# It stays the worst case: an orbit that enters a kernel trap stops
# costing steps, but one that neither enters a trap nor escapes, such
# as a slowly escaping sin orbit on the imaginary axis, runs every step.
_SCAN_WORK_BUDGET = 1 << 30
_STEP_OVERHEAD_CELLS = 1 << 10


def _max_iterations(grid: int) -> int:
    return _SCAN_WORK_BUDGET // (grid * grid + _STEP_OVERHEAD_CELLS)


MAX_ITERATIONS = _max_iterations(2)
"""Most iterations any scan may run: the cap at the smallest grid."""

# The defaults of fractal.EscapeParams: the classic scanner's orbit length and squared escape bound.
_ESCAPE_ITERATIONS = 50
_ESCAPE_THRESHOLD_SQ = 10.0


def _check_count(value, name: str, low: int = 0, high: int | None = None) -> int:
    """`value` if an int in [low, high] (None: no upper limit), else a ValueError naming `name`.

    A bool is refused although it is an int: `True` is not a count.
    """
    if type(value) is not bool and isinstance(value, int) and low <= value and (high is None or value <= high):
        return value
    limits = "a non-negative integer" if low == 0 else f"an integer >= {low}"
    if high is not None:
        limits += f" <= {high}" if low == 0 else f" and <= {high}"
    raise ValueError(f"{name} must be {limits}, got {value!r}")


def _real(value, name: str, must: str = "a real number", hint: str = "") -> float:
    """`value` as a float if a real number, ±inf and nan included, else a ValueError naming `name`.

    A real number is a numbers.Real other than a bool: an int, a float or
    a numpy scalar.  A str, None or a complex is refused, and so is an
    int too large for a double.  The error reads "`name` must be `must`,
    got ..." followed by `hint`.
    """
    # the exact types first: an isinstance test against numbers.Real takes about 0.8 us
    exact = type(value) is float or type(value) is int
    if exact or (isinstance(value, numbers.Real) and not isinstance(value, bool)):
        try:
            return float(value)
        except OverflowError:
            got = f"{type(value).__name__} value beyond the double range"
    else:
        got = f"{value!r} ({type(value).__name__}, not a real number)"
    raise ValueError(f"{name} must be {must}, got {got}{hint}")


def _check_real(value, name: str, positive: bool = False) -> float:
    """`value` as a float if a finite real number (> 0 when `positive`), else a ValueError naming `name`.

    What counts as a real number is up to _real.
    """
    if type(value) is float and math.isfinite(value) and (value > 0.0 or not positive):
        return value  # the common case, without building the error's wording
    must = "positive and finite" if positive else "finite"
    hint = f"; the smallest usable {name} is 5e-324" if positive else ""  # math.ulp(0.0)
    x = _real(value, name, must, hint)
    if math.isfinite(x) and (x > 0.0 or not positive):
        return x
    raise ValueError(f"{name} must be {must}, got {value!r}{hint}")


class TrigKind(Enum):
    """Which trigonometric map is being iterated."""

    COSINE = "cos"
    SINE = "sin"

    @classmethod
    def parse(cls, name: str) -> "TrigKind":
        for kind in cls:
            if kind.value == name:
                return kind
        raise ValueError(f"unknown map {name!r}: expected 'cos' or 'sin'")


class _MandelbrotFamily:
    """Marker: iterate z -> z*z + c with c set to each point scanned, from z=0."""

    def __repr__(self) -> str:  # pragma: no cover
        return "MANDELBROT"


MANDELBROT = _MandelbrotFamily()


# Read once: an Enum member read off its class takes about 0.14 us, a
# module global a tenth of that, and every calculus entry point checks both.
_COSINE, _SINE = TrigKind.COSINE, TrigKind.SINE


def _check_kind(kind) -> None:
    """Refuse anything but TrigKind.COSINE and TrigKind.SINE with a TypeError naming it."""
    if kind is not _COSINE and kind is not _SINE:
        raise TypeError(f"kind must be TrigKind.COSINE or TrigKind.SINE, got {kind!r}")


class SolverMethod(Enum):
    """Root-finding strategy for the cosine fixed point."""

    FIXED_POINT = "fixed-point"
    NEWTON = "newton"


class ConvergenceError(RuntimeError):
    """A solver ran out of iterations before reaching its tolerance, or could not prove its result."""


@dataclass(frozen=True)
class FixedPointResult:
    """Solver outcome: the fixed point plus convergence diagnostics."""

    value: float
    iterations: int
    residual: float
    method: SolverMethod


@dataclass(frozen=True)
class RangeBound:
    """Closed interval [lower, upper] attained by an iterate over the reals."""

    lower: float
    upper: float


def _cosh_inf(x: float) -> float:
    try:
        return math.cosh(x)
    except OverflowError:
        return math.inf


def _sinh_inf(x: float) -> float:
    try:
        return math.sinh(x)
    except OverflowError:
        return math.copysign(math.inf, x)


def _minus_sin(x: float) -> float:
    return -math.sin(x)


def _map_and_slope(kind: TrigKind):
    """(f, f') for the map: (cos, -sin) or (sin, cos)."""
    return (math.cos, _minus_sin) if kind is _COSINE else (math.sin, math.cos)


def _iterate_real(kind: TrigKind, order: int, x: float) -> float:
    f = math.cos if kind is _COSINE else math.sin
    for _ in range(order):
        x = f(x)
    return x


def _iterate_complex(kind: TrigKind, order: int, z: complex) -> complex:
    # cos z and sin z are f(x) cosh y + i f'(x) sinh y at z = x + iy;
    # overflow saturates to inf instead of raising, so an escaping orbit
    # yields a non-finite value.
    f, slope = _map_and_slope(kind)
    a, b = z.real, z.imag
    for _ in range(order):
        if not (math.isfinite(a) and math.isfinite(b)):
            break
        a, b = f(a) * _cosh_inf(b), slope(a) * _sinh_inf(b)
    return complex(a, b)


def iterate(kind: TrigKind, order: int, initial: complex | float = 0.0) -> complex | float:
    """Apply cos or sin to `initial` exactly `order` times.

    Order 0 returns `initial` unchanged, a real start as a float.  Real
    input stays real.  A complex orbit that overflows is reported as a
    non-finite value, not an exception; a real start that is not a finite
    real number (nan, ±inf, a str, a bool, an int beyond the double
    range) raises ValueError.
    """
    _check_kind(kind)
    _check_count(order, "order")
    if isinstance(initial, complex):
        return _iterate_complex(kind, order, initial)
    return _iterate_real(kind, order, _check_real(initial, "initial"))


def dottie(
    tolerance: float = 1e-12,
    method: SolverMethod = SolverMethod.FIXED_POINT,
    max_iterations: int = 1000,
) -> FixedPointResult:
    """Solve cos(x) = x in double precision.

    Stops once both the step size and the residual |cos(x) - x| fall
    within `tolerance`.  Raises ConvergenceError, naming the best
    residual reached, if `max_iterations` applications are not enough.
    """
    tol = _check_real(tolerance, "tolerance", positive=True)
    _check_count(max_iterations, "max_iterations", 1)

    if method is SolverMethod.FIXED_POINT:
        x = 0.0
        step = lambda x, fx: fx
    elif method is SolverMethod.NEWTON:
        x = 0.75
        step = lambda x, fx: x + (fx - x) / (1.0 + math.sin(x))
    else:
        raise ValueError(f"unknown method {method!r}")
    best = math.inf
    fx = math.cos(x)
    for k in range(1, max_iterations + 1):
        nxt = step(x, fx)
        fnxt = math.cos(nxt)
        residual = abs(fnxt - nxt)
        best = min(best, residual)
        if abs(nxt - x) <= tol and residual <= tol:
            return FixedPointResult(nxt, k, residual, method)
        x, fx = nxt, fnxt
    raise ConvergenceError(
        f"no fixed point to tolerance {tol:g} within {max_iterations} iterations; "
        f"best residual {best:g}"
    )


def _newton_enclosure(mid, radius):
    """Exact decimal endpoints of an interval proven to hold the only root of cos(x) = x in a box.

    The box is X = mid + [-radius, radius], for `mid` and `radius`
    anything `mpmath` reads as a number (a decimal string is widened to
    the interval around it).  In outward-rounded interval arithmetic the
    Newton image N(X) = mid - (cos mid - mid) / (-sin X - 1) is formed.
    If the slope -sin X - 1 excludes 0 and N(X) lies inside X, then X
    holds exactly one root and the root lies in N(X) (Moore, *Interval
    Analysis*, 1966); otherwise ConvergenceError is raised.  A private
    interval context is used, so `mpmath.iv.prec` is left as it is.
    """
    import decimal

    import mpmath

    iv = mpmath.MPIntervalContext()
    iv.prec = _ENCLOSURE_BITS
    m = iv.mpf(mid)
    box = m + iv.mpf([-1, 1]) * iv.mpf(radius)
    slope = -iv.sin(box) - 1
    image = m - (iv.cos(m) - m) / slope
    if 0 in slope or image not in box:
        raise ConvergenceError(f"interval Newton proves no root in the box {box}: slope {slope}, image {image}")
    ends = []
    for sign, man, exp, _ in image._mpi_:  # each end is sign, mantissa, binary exponent, bit count
        digits = f"{man << exp}" if exp >= 0 else f"{man * 5**-exp}e{exp}"  # man * 2**exp, exactly
        ends.append(decimal.Decimal(("-" if sign else "") + digits))
    return tuple(ends)


@functools.cache
def _dottie_enclosure():
    """(lower, upper) Decimals proven to enclose the Dottie number, about 2**-320 apart.

    Three Newton steps from the double DOTTIE (53 correct bits) in a
    private real context give the midpoint; the box around it is checked
    by :func:`_newton_enclosure`.  Built at the first call, then cached.
    """
    import mpmath

    ctx = mpmath.MPContext()
    ctx.prec = _ENCLOSURE_BITS
    mid = ctx.mpf(DOTTIE)
    for _ in range(3):  # each step about doubles the correct bits: 53, 106, 212, past 320
        mid += (ctx.cos(mid) - mid) / (ctx.sin(mid) + 1)
    return _newton_enclosure(mid, ctx.ldexp(1, 32 - _ENCLOSURE_BITS))


def dottie_digits(digits: int = MAX_DIGITS) -> str:
    """Return the cosine fixed point as a decimal string, every digit proven.

    `digits` counts significant digits and must lie in [1, 64]; the
    constant starts 0.739..., so they coincide with decimal places.
    Both ends of a cached interval-Newton enclosure of the fixed point
    are rounded half-even to that many places; the string is returned
    only if the two roundings agree, so it is the correctly rounded
    value, and ConvergenceError is raised otherwise.
    """
    _check_count(digits, "digits", 1, MAX_DIGITS)
    import decimal  # imported here only, like mpmath, to keep the CLI's start-up short

    quantum = decimal.Decimal(1).scaleb(-digits)
    context = decimal.Context(prec=MAX_DIGITS + 1, rounding=decimal.ROUND_HALF_EVEN)
    lower, upper = (end.quantize(quantum, context=context) for end in _dottie_enclosure())
    if lower != upper:
        raise ConvergenceError(f"the Dottie enclosure does not fix digit {digits}: {lower} vs {upper}")
    return str(lower)


def cos_range(order: int) -> RangeBound:
    """Exact range of the order-n cosine iterate over the real line, n >= 1.

    The first iterate spans [-1, 1].  From the second on, the endpoints
    are the cosine iterates n - 2 and n - 1 of 1, both from one orbit;
    the parity of n decides which is the lower end.
    """
    _check_count(order, "order", 1)
    if order == 1:
        return RangeBound(-1.0, 1.0)
    a = _iterate_real(TrigKind.COSINE, order - 2, 1.0)
    b = math.cos(a)
    lower, upper = (a, b) if order % 2 else (b, a)
    return RangeBound(lower, upper)


def sin_envelope(order: int) -> float:
    """Half-width s_n of the symmetric envelope of the order-n sine iterate.

    s_n is sin applied n times to 1.  The order-n iterate maps [-1, 1]
    into [-s_n, s_n], and the order-(n+1) iterate maps the whole real
    line into it, touching both ends; the sequence decreases to 0, so
    repeated sine flattens everything toward the axis.
    """
    _check_count(order, "order", 1)
    return _iterate_real(TrigKind.SINE, order, 1.0)


def intersection_distances(order: int) -> tuple[float, float]:
    """Gap lengths between consecutive fixed-point-level crossings.

    The order-n cosine iterate meets the level y = D (its fixed point)
    at a periodic set of abscissas; the gaps alternate between a short
    and a long one.  Returns (short, long): (2D, 2(pi - D)) for order 1
    and (2D, pi - 2D) for every higher order.
    """
    _check_count(order, "order", 1)
    short = 2.0 * DOTTIE
    if order == 1:
        return short, 2.0 * (math.pi - DOTTIE)
    return short, math.pi - 2.0 * DOTTIE
