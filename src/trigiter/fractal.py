"""Escape-time membership scans for iterated complex maps.

A point survives when the squared magnitude of its orbit's final
iterate stays below a threshold; only the final iterate is tested, so
an orbit may wander past the threshold and return.  Orbits that leave
the finite range are escaped by definition.  Grids are sampled by
cumulative stepping (each coordinate is the previous plus a fixed
increment, not an independently rounded product), which pins the output
bytes of a scan regardless of worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import _kernels
from .iteration import (
    _ESCAPE_ITERATIONS,
    _ESCAPE_THRESHOLD_SQ,
    MANDELBROT,
    MAX_GRID,
    _check_count,
    _check_real,
    _max_iterations,
    _real,
)

__all__ = [
    "MANDELBROT",
    "EscapeParams",
    "PointSet",
    "MAX_GRID",
    "scan_raw",
    "format_points",
]


@dataclass(frozen=True)
class EscapeParams:
    """Escape test configuration.

    `threshold_sq` bounds the squared magnitude, so the default 10
    corresponds to |z| < sqrt(10).  With `early_exit` a point counts as
    escaped as soon as its orbit reaches the bound, so points whose
    orbits would have returned below it are dropped.  `early_exit` is
    True or False; anything else, 0, 1 or "no" included, is a TypeError.
    """

    iterations: int = _ESCAPE_ITERATIONS
    threshold_sq: float = _ESCAPE_THRESHOLD_SQ
    early_exit: bool = False

    def __post_init__(self) -> None:
        _check_count(self.iterations, "iterations")
        object.__setattr__(self, "threshold_sq", _check_real(self.threshold_sq, "threshold_sq", True))
        if not isinstance(self.early_exit, bool):
            raise TypeError(f"early_exit must be True or False, got {self.early_exit!r}")


@dataclass(frozen=True, eq=False)
class PointSet:
    """Scan outcome: the survival mask over the grid and the grid's axes.

    `mask[r, i]` tells whether the sample at real step r, imaginary
    step i survives; `xs[r]` is the real coordinate of row r and `ys[i]`
    the imaginary coordinate of column i.  The three arrays are
    read-only; arrays the caller could still write are copied.

    The survivors are the cells where `mask` is set, in scan order (row
    by row); on degenerate zero-step grids their coordinates repeat.
    len() counts them and `scanned` counts every cell evaluated.
    """

    mask: np.ndarray = field(repr=False)
    xs: np.ndarray = field(repr=False)
    ys: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        mask = np.asarray(self.mask)
        if mask.dtype != np.bool_ or mask.ndim != 2:
            raise ValueError("mask must be a two-dimensional boolean array")
        xs = np.asarray(self.xs, dtype=np.float64)
        ys = np.asarray(self.ys, dtype=np.float64)
        if xs.shape != mask.shape[:1] or ys.shape != mask.shape[1:]:
            raise ValueError(
                f"axis lengths ({xs.shape}, {ys.shape}) must match the mask shape {mask.shape}"
            )
        for name, array in (("mask", mask), ("xs", xs), ("ys", ys)):
            if array.flags.writeable:
                array = array.copy()
                array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def scanned(self) -> int:
        return self.mask.size

    def __len__(self) -> int:
        return int(np.count_nonzero(self.mask))

    def row_blocks(self):
        """Yield this set cut into blocks of whole rows, in scan order.

        Each block is a PointSet of about _TILE_CELLS cells that views
        this set's read-only arrays, so nothing is copied.  Every row's
        text depends on that row alone, so formatting the blocks one at
        a time and joining the text gives the bytes format_points gives
        for the whole set, with only one block's text alive at a time.
        """
        rows = _kernels._tile_rows(self.mask.shape[1])
        for lo in range(0, self.mask.shape[0], rows):
            hi = lo + rows
            yield PointSet(self.mask[lo:hi], self.xs[lo:hi], self.ys)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS reports one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cumulative_axis(start: float, step: float, count: int) -> np.ndarray:
    # accumulate adds left to right, so out[i] == out[i-1] + step exactly
    steps = np.full(count, step)
    steps[0] = start
    with np.errstate(all="ignore"):  # overflow and inf - inf, silent as in Python floats
        return np.add.accumulate(steps)


def scan_raw(
    x1: float,
    y1: float,
    x2: float,
    y2: float,
    grid: int,
    mapping,
    params: EscapeParams = EscapeParams(),
    workers: int | None = None,
) -> PointSet:
    """Scan the rectangle (x1, y1)-(x2, y2) without normalizing corner order.

    Sampling follows cumulative stepping: the imaginary coordinate runs
    from y1 in increments of (y2-y1)/(grid-1) and resets per row; the
    real coordinate starts at x1 as given, -0.0 included, and row r + 1
    starts at row r's coordinate plus 0.0 plus the real step.  Corners
    given in descending order scan in descending order.  The kernel
    takes xs as they are: a -0.0 in row 0 flips only the sign of zero
    components of its orbits, which no trap or magnitude test reads.
    The corners may be any real numbers, ±inf and nan included; anything
    else is a ValueError.  `params` must be an EscapeParams and `mapping`
    TrigKind.COSINE, TrigKind.SINE or MANDELBROT; anything else is a
    TypeError.

    cos and sin scans run on n = min(workers, tiles, usable CPUs)
    threads, where `workers` defaults to the usable CPUs and a tile is
    about 32k cells of whole rows: thread k scans rows k, k + n, k + 2n
    and so on in one kernel call that sets those rows of the scan's
    mask, so every thread gets a like share of cheap and costly rows for
    any region, and no thread holds a mask of its own.  One thread scans
    on the calling thread.  A Mandelbrot scan is one kernel call on the calling
    thread; `workers` is still checked.  Its step is a few numpy calls
    on arrays that shrink within a few compactions, which hold the GIL
    for most of their time, and one thread scanned the benchmark's
    Mandelbrot requests faster than two.  The kernel cuts each call's
    rows into tiles and joins the orbits the tiles leave live after the
    first compaction.
    The iteration count is capped by a work budget that shrinks with
    the grid: 52 iterations at MAX_GRID, MAX_ITERATIONS at grid 2.
    """
    _check_count(grid, "grid", 2, MAX_GRID)
    if not isinstance(params, EscapeParams):
        raise TypeError(f"params must be an EscapeParams, got {params!r}")
    _check_count(params.iterations, f"iterations at grid {grid}", 0, _max_iterations(grid))
    if not any(mapping is m for m in _kernels.MAPS):
        raise TypeError(f"mapping must be TrigKind.COSINE, TrigKind.SINE or MANDELBROT, got {mapping!r}")
    x1, y1, x2, y2 = (_real(v, name) for v, name in zip((x1, y1, x2, y2), ("x1", "y1", "x2", "y2")))
    step_re = (x2 - x1) / (grid - 1)
    step_im = (y2 - y1) / (grid - 1)

    ys = _cumulative_axis(y1, step_im, grid)
    # The rows after the first accumulate from x1 + 0.0: from -0.0 a
    # step of -0.0 (an underflowing one) would otherwise keep -0.0.
    xs = _cumulative_axis(x1 + 0.0, step_re, grid)
    xs[0] = x1

    if workers is None:
        workers = _usable_cpus()
    _check_count(workers, "workers", 1)

    args = (mapping, params.threshold_sq, params.early_exit, params.iterations)
    tiles = -(-grid // _kernels._tile_rows(grid))
    n = 1 if mapping is MANDELBROT else min(workers, tiles, _usable_cpus())
    mask = np.zeros((grid, grid), dtype=bool)

    def run(k: int) -> None:
        _kernels.survive(xs[k::n], ys, *args, mask[k::n])  # sets rows k, k + n, ... of the mask

    if n == 1:
        run(0)
    else:
        with ThreadPoolExecutor(max_workers=n) as pool:
            list(pool.map(run, range(n)))

    for array in (mask, xs, ys):  # read-only, so PointSet keeps them without a copy
        array.setflags(write=False)
    return PointSet(mask, xs, ys)


def format_points(points: PointSet, padded: bool = True) -> str:
    """One newline-terminated line per survivor of a PointSet, in scan order.

    A line is the survivor's real and imaginary coordinates, each as
    "%.16g" text: right-aligned to 25 columns and joined by one space in
    the gnuplot layout (`padded`), joined by one space in the plain one.
    The classic scanner's rule for the real coordinate holds per row: a
    row's first cell prints `xs[r]` as given, its later cells print
    `xs[r] + 0.0`, the column step it adds, so a -0.0 prints as "-0" in
    column 0 only.  An empty set gives an empty string; anything but a
    PointSet, or a `padded` other than True or False, is a TypeError.

    The lines come from two tables, one line start per grid row and one
    line end per column, so each coordinate is formatted once per axis
    index instead of once per survivor.  Each block's lines are gathered
    from those tables into one (survivors, 2) array: fixed-width byte
    records in the gnuplot layout, Python strings in the plain one.  The
    column table is cached on the column coordinates, so the row blocks
    of one scan build it once.  The text is built one row block at a
    time, so besides the returned string only one block's lines are
    alive.
    """
    if not isinstance(points, PointSet):
        raise TypeError(f"format_points takes a PointSet, got {type(points).__name__}")
    if not isinstance(padded, bool):
        raise TypeError(f"padded must be True or False, got {padded!r}")
    text = ""
    for block in points.row_blocks():
        # CPython grows a str that nothing else references in place, so
        # the text is the one buffer of full size.
        text += _format_block(block, padded)
    return text


def _format_block(points: PointSet, padded: bool) -> str:
    mask = points.mask
    if not mask.any():
        return ""
    re_tab = _coordinate_table((points.xs + 0.0).tolist(), " ", padded)
    im_tab = _column_line_ends(points.ys.tobytes(), padded)
    rows, cols = np.nonzero(mask)
    lines = np.empty((rows.size, 2), dtype=im_tab.dtype)
    lines[:, 0] = re_tab[rows]
    lines[:, 1] = im_tab[cols]
    # x + 0.0 differs from x only at -0.0, so only a -0.0 row's first cell needs its own text
    negative_zero = (points.xs == 0.0) & np.signbit(points.xs)
    if negative_zero.any():
        lines[(cols == 0) & negative_zero[rows], 0] = _coordinate_table([-0.0], " ", padded)[0]
    if padded:
        return str(lines.data, "ascii")
    return "".join(lines.ravel().tolist())


def _coordinate_table(values, end: str, padded: bool) -> np.ndarray:
    # %.16g of a double is at most 23 characters, so every padded cell
    # is 26 bytes and every gnuplot line 52: fixed-width S26 records.
    # Plain cells vary in width and stay Python strings.
    if not padded:
        return np.array(["%.16g" % v + end for v in values], dtype=object)
    table = np.array(["%25.16g" % v + end for v in values], dtype="S")
    assert table.itemsize == 26, "a coordinate wider than 25 columns"
    return table


@lru_cache(maxsize=2)
def _column_line_ends(ys: bytes, padded: bool) -> np.ndarray:
    # The end of each column's lines, keyed on the float64 bytes of the
    # column coordinates; read-only, as the cache shares it.
    table = _coordinate_table(np.frombuffer(ys).tolist(), "\n", padded)
    table.setflags(write=False)
    return table
