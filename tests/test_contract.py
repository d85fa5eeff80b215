"""The library's input contract: every public call returns or raises a documented error.

Each public function and constructor is called with its counts, reals
and maps drawn from valid values and from a pool of values that some or
all of them refuse: bools, nan, ±inf and 1e308, complex values, strings,
None, the three maps, and (as reals only) ints beyond the double range.
So are a series' tail bound, the point a series is evaluated at and the
scan corners.  Structured arguments (series, derivative tables, point
sets and escape parameters) are drawn valid.  A call must return, or
raise ValueError (TailBoundError is one), TypeError or ConvergenceError:
never OverflowError, IndexError, or an error from inside a computation.

Counts are drawn from small ranges: library counts are not capped, so
iterate(TrigKind.COSINE, 10**12, x) would run for hours.  The command
line caps them (README, *Input limits*).
"""

import inspect
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trigiter
from trigiter import (
    MANDELBROT,
    ConvergenceError,
    EscapeParams,
    PointSet,
    PowerSeries,
    SolverMethod,
    TrigKind,
)

MAPS = (TrigKind.COSINE, TrigKind.SINE, MANDELBROT)
# drawn besides the valid values of every count, real and map argument
ODD = (True, False, None, "0.5", "3", "cos", 1 + 2j, 0.5 + 0j, math.nan, math.inf, -math.inf,
       1e308, -1e308, -(10**400), *MAPS)
# drawn for reals only: as a count, an int this large is valid and would run for ever
HUGE = (10**400, 2**1024)


def count(low, high):
    return st.integers(low, high) | st.sampled_from((low - 1, high + 1, 2.0, *ODD))


def real(valid=st.floats(-4.0, 4.0) | st.integers(-10, 10)):
    return valid | st.sampled_from(ODD + HUGE)


mapping = st.sampled_from(MAPS) | st.sampled_from(ODD)
tolerance = real(st.sampled_from((1e-12, 1e-6, 0.5, 5e-324)))
series = st.builds(
    PowerSeries,
    st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=12).map(tuple),
    st.sampled_from((0.0, 1e-3, math.inf)),
) | st.builds(trigiter.cos_series, st.integers(0, 20)) | st.builds(trigiter.sin_series, st.integers(0, 20))
tables = st.lists(st.lists(st.integers(-5, 5) | st.floats(-2.0, 2.0), max_size=8), max_size=4)
params = st.builds(EscapeParams, st.integers(0, 20), st.sampled_from((1.0, 10.0, 1e6)), st.booleans())
points = st.builds(
    lambda grid, kind, p: trigiter.scan_raw(-2.0, -2.0, 2.0, 2.0, grid, kind, p),
    st.integers(2, 8), st.sampled_from(MAPS), params,
)

# name -> (callable, strategy of its positional arguments)
CALLS = {
    "iterate": (
        trigiter.iterate, st.tuples(mapping, count(0, 30), real() | st.complex_numbers(max_magnitude=4))
    ),
    "dottie": (trigiter.dottie, st.tuples(tolerance, st.sampled_from(tuple(SolverMethod)), count(1, 100))),
    "dottie_digits": (trigiter.dottie_digits, st.tuples(count(1, 64))),
    "cos_range": (trigiter.cos_range, st.tuples(count(1, 50))),
    "sin_envelope": (trigiter.sin_envelope, st.tuples(count(1, 50))),
    "intersection_distances": (trigiter.intersection_distances, st.tuples(count(1, 50))),
    "TrigKind.parse": (TrigKind.parse, st.tuples(st.sampled_from(("cos", "sin")) | st.sampled_from(ODD))),
    "iterated_derivative": (trigiter.iterated_derivative, st.tuples(mapping, count(0, 30), real())),
    "product_nth_derivative": (trigiter.product_nth_derivative, st.tuples(tables, count(0, 6))),
    "second_derivative_at_zero": (trigiter.second_derivative_at_zero, st.tuples(count(1, 30))),
    "extrema_locations": (trigiter.extrema_locations, st.tuples(mapping, count(1, 5), count(1, 20))),
    "PowerSeries": (
        PowerSeries, st.tuples(st.lists(real(), max_size=6).map(tuple), real(st.sampled_from((0.0, 1e-3, math.inf))))
    ),
    "PowerSeries.__call__": (PowerSeries.__call__, st.tuples(series, real())),
    "PowerSeries.truncate": (PowerSeries.truncate, st.tuples(series, count(0, 12))),
    "PowerSeries.derivative_at_zero": (PowerSeries.derivative_at_zero, st.tuples(series, count(0, 12))),
    "cos_series": (trigiter.cos_series, st.tuples(count(0, 40))),
    "sin_series": (trigiter.sin_series, st.tuples(count(0, 40))),
    "cauchy_product": (trigiter.cauchy_product, st.tuples(series, series)),
    "compose": (trigiter.compose, st.tuples(mapping, series)),
    "iterated_series": (trigiter.iterated_series, st.tuples(mapping, count(0, 3), count(0, 30))),
    "EscapeParams": (EscapeParams, st.tuples(count(0, 20), real(st.floats(1e-3, 1e6)), st.booleans())),
    "PointSet": (lambda p: PointSet(p.mask, p.xs, p.ys), st.tuples(points)),
    "scan_raw": (
        trigiter.scan_raw, st.tuples(*[real(st.floats(-3.0, 3.0))] * 4, count(2, 8), mapping, params, count(1, 3))
    ),
    "format_points": (trigiter.format_points, st.tuples(points, st.booleans())),
}


def test_every_public_function_is_drawn():
    functions = {name for name in trigiter.__all__ if inspect.isfunction(getattr(trigiter, name))}
    assert functions <= CALLS.keys()


@pytest.mark.parametrize("name", CALLS)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_every_call_returns_or_raises_a_documented_error(name, data):
    function, arguments = CALLS[name]
    args = data.draw(arguments, label="args")
    try:
        function(*args)
    except (ValueError, TypeError, ConvergenceError):  # TailBoundError is a ValueError
        pass
