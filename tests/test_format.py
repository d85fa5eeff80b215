"""Scan output built from per-axis string tables, against the one-line definition.

`format_points` formats a PointSet from one string per grid row and one
per column; a plain sequence of complex goes through `format_point` one
point at a time.  Both must give the same bytes for every scan, and so
must the row blocks of a PointSet formatted one at a time and joined.
"""

import math
import os
import pathlib
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from trigiter import (
    MANDELBROT,
    EscapeParams,
    PointSet,
    TrigKind,
    format_point,
    format_points,
    scan_raw,
)
from trigiter import fractal

MAPS = {
    "cos": TrigKind.COSINE,
    "sin": TrigKind.SINE,
    "mandelbrot": MANDELBROT,
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
    # a unit bound with early exit leaves partial masks and empty rows
    # on grids that the default params fill or empty whole
    "early-exit": EscapeParams(iterations=20, threshold_sq=1.0, early_exit=True),
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


def joined_blocks(ps, padded=True):
    return "".join(format_points(block, padded) for block in ps.row_blocks())


def tile_of_rows(rows, cols):
    """Patch the tile size so that blocks (and scan tiles) hold `rows` rows of `cols` cells."""
    return mock.patch.object(fractal, "_TILE_CELLS", rows * cols)


def assert_blocks_join_to_whole(ps, rows):
    blocks = list(ps.row_blocks())
    assert [block.mask.shape[0] for block in blocks[:-1]] == [rows] * (len(blocks) - 1)
    assert 1 <= blocks[-1].mask.shape[0] <= rows
    assert sum(block.scanned for block in blocks) == ps.scanned
    assert sum(len(block) for block in blocks) == len(ps)
    # compared by repr, which tells -0.0 from 0.0 and lets nan equal nan
    assert [repr(z) for block in blocks for z in block] == list(map(repr, ps))
    for block in blocks:
        # views of the set's read-only arrays, not copies
        assert block.ys is ps.ys
        assert np.shares_memory(block.mask, ps.mask) and np.shares_memory(block.xs, ps.xs)
    for padded in (True, False):
        assert joined_blocks(ps, padded) == format_points(ps, padded)


class TestRowBlocks:
    # 1 row per block, and 2 or 3 rows, which leave a shorter last block
    # on most of the regions' grids
    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("params", PARAMS.values(), ids=PARAMS.keys())
    @pytest.mark.parametrize("region", REGIONS.values(), ids=REGIONS.keys())
    @pytest.mark.parametrize("mapping", MAPS.values(), ids=MAPS.keys())
    def test_joined_blocks_match_the_whole(self, mapping, region, params, rows):
        with tile_of_rows(rows, region[-1]):
            assert_blocks_join_to_whole(scan_raw(*region, mapping, params), rows)

    def test_default_blocks_are_about_one_tile(self):
        ps = scan_raw(-2.5, -2.5, 2.5, 2.5, 300, TrigKind.COSINE)
        blocks = list(ps.row_blocks())
        rows = fractal._TILE_CELLS // 300
        assert [block.scanned for block in blocks] == [rows * 300] * 2 + [(300 - 2 * rows) * 300]
        assert_blocks_join_to_whole(ps, rows)

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_empty_blocks_and_a_later_first_cell(self, rows):
        # survivors only in rows 2, 3 and 5: the first blocks are empty,
        # and a later block's first cell survives with a -0.0 row coordinate
        xs = [0.5, 1.5, -0.0, 2.5, 3.5, -1.0]
        ys = [-0.0, 0.25, 0.5]
        mask = np.zeros((6, 3), dtype=bool)
        mask[2, 0] = mask[3, 2] = mask[5, 1] = True
        ps = PointSet(mask, xs, ys, -0.0)
        with tile_of_rows(rows, 3):
            assert_blocks_join_to_whole(ps, rows)
        assert format_points(ps).splitlines()[0] == "%25s %25s" % ("-0", "-0")

    def test_all_escaped_scan_writes_nothing(self):
        ps = scan_raw(*REGIONS["escaping"], MAPS["cos"])
        with tile_of_rows(1, 4):
            blocks = list(ps.row_blocks())
        assert len(blocks) == 4 and all(len(block) == 0 for block in blocks)
        assert joined_blocks(ps) == joined_blocks(ps, padded=False) == ""

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    @pytest.mark.parametrize("padded", [True, False], ids=["gnuplot", "plain"])
    def test_whole_string_peak_is_the_text_and_one_block(self, padded):
        # The peak while formatting over the resident size just before it,
        # in a fresh process.  VmHWM, unlike ru_maxrss, starts afresh at
        # exec, so the size of this test process does not show.  Every
        # cell of the grid survives; 16 B/cell leaves room for one block.
        script = (
            "from trigiter import TrigKind, format_points, scan_raw\n"
            "def status(key):\n"
            "    with open('/proc/self/status') as f:\n"
            "        return next(int(l.split()[1]) * 1024 for l in f if l.startswith(key + ':'))\n"
            "ps = scan_raw(-0.1, -0.1, 0.1, 0.1, 1000, TrigKind.COSINE, workers=1)\n"
            "before = status('VmRSS')\n"
            f"text = format_points(ps, padded={padded})\n"
            "print(len(ps), len(text), status('VmHWM') - before)\n"
        )
        src = pathlib.Path(fractal.__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        cells, text_bytes, rise = map(int, proc.stdout.split())
        assert cells == 1000 * 1000
        assert rise < text_bytes + 16 * cells, f"{rise / cells:.1f} B/cell for {text_bytes / cells:.1f} of text"


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    x1=coordinate,
    y1=coordinate,
    x2=coordinate,
    y2=coordinate,
    grid=st.integers(min_value=2, max_value=40),
    name=st.sampled_from(["cos", "sin"]),
    rows=st.integers(min_value=1, max_value=5),
)
def test_random_row_blocks_match_straightline_oracle(x1, y1, x2, y2, grid, name, rows):
    with tile_of_rows(rows, grid):
        ps = scan_raw(x1, y1, x2, y2, grid, MAPS[name])
        assert joined_blocks(ps) == oracles.straightline_scan(x1, y1, x2, y2, grid, name)
        assert joined_blocks(ps, padded=False) == format_points(ps.points, padded=False)


# Coordinates of every width %.16g gives, from "0" to 23 characters.
WIDTHS = [0.0, -0.0, 5e-324, -5e-324, TINY, -TINY, 1e308, -1e308, HUGE, math.inf, -math.inf, math.nan, 0.1, -2.5]
mixed_coordinate = st.one_of(st.sampled_from(WIDTHS), st.floats())


@st.composite
def point_sets(draw):
    rows = draw(st.integers(min_value=1, max_value=6))
    cols = draw(st.integers(min_value=1, max_value=6))
    cells = draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))
    mask = np.array(cells, dtype=bool).reshape(rows, cols)
    # empty rows and columns, which the drawn cells alone seldom give
    mask[draw(st.lists(st.integers(0, rows - 1), max_size=rows)), :] = False
    mask[:, draw(st.lists(st.integers(0, cols - 1), max_size=cols))] = False
    xs = draw(st.lists(mixed_coordinate, min_size=rows, max_size=rows))
    ys = draw(st.lists(mixed_coordinate, min_size=cols, max_size=cols))
    return PointSet(mask, xs, ys, draw(mixed_coordinate))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(ps=point_sets(), tile=st.integers(min_value=1, max_value=12))
def test_any_point_set_formats_like_format_point(ps, tile):
    # Grid scans never mix such widths in one block; the tables must not care.
    with mock.patch.object(fractal, "_TILE_CELLS", tile):
        for padded in (True, False):
            assert_formats_like_reference(ps, padded)
            assert joined_blocks(ps, padded) == format_points(ps, padded)
