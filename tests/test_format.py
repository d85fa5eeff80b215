"""Scan output built from per-axis string tables, against the one-line definition.

`format_points` formats a PointSet from one string per grid row and one
per column; a plain sequence of complex goes through `format_point` one
point at a time.  Both must give the same bytes for every scan.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from trigiter import (
    MANDELBROT,
    EscapeParams,
    PointSet,
    Quadratic,
    TrigKind,
    format_point,
    format_points,
    scan_raw,
)

MAPS = {
    "cos": TrigKind.COSINE,
    "sin": TrigKind.SINE,
    "mandelbrot": MANDELBROT,
    "quadratic": Quadratic(-0.8 + 0.156j),
}
TINY = 2.2250738585072014e-308  # smallest normal double
HUGE = 1.7976931348623157e308  # largest finite double
REGIONS = {
    "negative-zero-first": (-0.0, -0.0, 1.0, 1.0, 7),
    "negative-zero-column": (-0.0, -1.0, 0.0, 1.0, 4),  # zero real step
    "signed-zero-y": (-1.0, -0.0, 1.0, 0.0, 5),
    "signed-zero-y-descending": (1.0, 0.0, -1.0, -0.0, 5),
    "subnormal": (5e-324, -5e-324, 1e-323, 5e-324, 4),
    # zero real step: every real coordinate is the 23-character -2.225073858507201e-308
    "smallest-normal": (-TINY, -TINY, -TINY, 1.0, 5),
    "near-max": (1e308, -0.5, HUGE, 0.5, 5),
    "near-min": (-HUGE, -0.5, -1e308, 0.5, 5),
    "degenerate": (0.5, -0.25, 0.5, -0.25, 3),  # zero steps on both axes
    "escaping": (10.0, 10.0, 12.0, 12.0, 4),  # no survivors under the default params
    # non-finite corners reach the scan only through legacy
    "inf-corner": (math.inf, 0.0, 1.0, 1.0, 4),
    "nan-corner": (0.0, math.nan, 1.0, 1.0, 4),
}
PARAMS = {
    "default": EscapeParams(),
    "every-finite-cell": EscapeParams(iterations=0, threshold_sq=1e300),
}


def reference_lines(ps, padded):
    """One format_point line per survivor, taken point by point."""
    return [format_point(z, padded) for z in ps.points]


def assert_formats_like_reference(ps, padded):
    text = format_points(ps, padded)
    expected = reference_lines(ps, padded)
    assert text.splitlines() == expected
    assert text == "".join(line + "\n" for line in expected)
    assert text == format_points(ps.points, padded)


@pytest.mark.parametrize("padded", [True, False], ids=["gnuplot", "plain"])
@pytest.mark.parametrize("params", PARAMS.values(), ids=PARAMS.keys())
@pytest.mark.parametrize("region", REGIONS.values(), ids=REGIONS.keys())
@pytest.mark.parametrize("mapping", MAPS.values(), ids=MAPS.keys())
def test_table_lines_match_format_point(mapping, region, params, padded):
    assert_formats_like_reference(scan_raw(*region, mapping, params), padded)


class TestTableEdges:
    def test_only_the_first_line_keeps_negative_zero(self):
        ps = scan_raw(*REGIONS["negative-zero-column"], MAPS["cos"], PARAMS["every-finite-cell"])
        for padded in (True, False):
            reals = [line.split()[0] for line in format_points(ps, padded).splitlines()]
            assert reals == ["-0"] + ["0"] * 15

    def test_widest_coordinate_fills_the_column(self):
        ps = scan_raw(*REGIONS["smallest-normal"], MAPS["cos"], PARAMS["every-finite-cell"])
        line = format_points(ps).splitlines()[0]
        assert line.startswith("  -2.225073858507201e-308 ")
        assert len(line) == 51

    def test_non_finite_axes(self):
        xs = [math.inf, -math.inf, math.nan, -0.0]
        ys = [math.nan, -math.inf, 0.0]
        mask = np.ones((4, 3), dtype=bool)
        mask[1, 1] = mask[3, 0] = False
        ps = PointSet(mask, xs, ys, -math.inf)
        for padded in (True, False):
            assert_formats_like_reference(ps, padded)
        assert format_points(ps).splitlines()[0] == "%25s %25s" % ("-inf", "nan")

    @pytest.mark.parametrize("padded", [True, False], ids=["gnuplot", "plain"])
    def test_empty_survivor_set(self, padded):
        ps = PointSet(np.zeros((3, 2), dtype=bool), [0.0, 1.0, 2.0], [0.0, 1.0], -0.0)
        assert len(ps) == 0
        assert format_points(ps, padded) == ""
        ps = scan_raw(*REGIONS["escaping"], MAPS["cos"])
        assert len(ps) == 0
        assert format_points(ps, padded) == ""

    def test_plain_sequences_keep_the_one_line_join(self):
        points = [complex(-0.0, 1.5), 2 + 0j]
        assert format_points(points) == "".join(format_point(z) + "\n" for z in points)
        assert format_points(iter(points), padded=False) == "-0 1.5\n2 0\n"


coordinate = st.floats(min_value=-3.0, max_value=3.0)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    x1=coordinate,
    y1=coordinate,
    x2=coordinate,
    y2=coordinate,
    grid=st.integers(min_value=2, max_value=40),
    name=st.sampled_from(["cos", "sin"]),
)
def test_random_scans_match_straightline_oracle(x1, y1, x2, y2, grid, name):
    ps = scan_raw(x1, y1, x2, y2, grid, MAPS[name])
    assert format_points(ps) == oracles.straightline_scan(x1, y1, x2, y2, grid, name)
    assert format_points(ps, padded=False) == format_points(ps.points, padded=False)
