import dataclasses
import math
import sys

import numpy as np
import pytest

import oracles
from trigiter import _kernels, fractal, iteration
from trigiter import (
    MANDELBROT,
    EscapeParams,
    PointSet,
    TrigKind,
    format_points,
    scan_raw,
)

COS = TrigKind.COSINE
SIN = TrigKind.SINE


def survives(z, mapping, params=EscapeParams()):
    """The kernel's escape test of one starting point (parameter point for MANDELBROT)."""
    grid = _kernels.survive(
        np.array([z.real]), np.array([z.imag]), mapping,
        params.threshold_sq, params.early_exit, params.iterations, np.zeros((1, 1), dtype=bool),
    )
    return bool(grid[0, 0])


class TestPointSurvives:
    def test_agrees_with_orbit_oracle(self):
        samples = [
            0.0 + 0.0j,
            1.0 + 0.0j,
            0.5 + 0.5j,
            -2.0 + 0.1j,
            0.0 + 3.0j,
            2.4 - 2.4j,
            0.001 + 1.0j,
        ]
        for name, kind in (("cos", COS), ("sin", SIN)):
            for z in samples:
                assert survives(z, kind) == oracles.orbit_survives(z, name), (
                    name,
                    z,
                )

    def test_pure_imaginary_cosine_final_value_counts(self):
        # cosh(3) ** 2 > 10 yet the orbit collapses back under the
        # threshold by iteration 50, so the point is a member.
        assert oracles.orbit_survives(3j, "cos") is True
        assert survives(3j, COS) is True

    def test_early_exit_rejects_transient_excursions(self):
        assert survives(3j, COS, EscapeParams(early_exit=True)) is False

    def test_mandelbrot_membership(self):
        assert survives(0.0j, MANDELBROT) is True
        assert survives(-1.0 + 0.0j, MANDELBROT) is True
        assert survives(0.25 + 0.0j, MANDELBROT) is True
        assert survives(-2.0 + 0.0j, MANDELBROT) is True
        assert survives(1.0 + 0.0j, MANDELBROT) is False
        assert survives(0.3 + 0.5j, MANDELBROT) is True

    def test_mapping_validation(self):
        with pytest.raises(TypeError, match="mapping"):
            scan_raw(0.0, 0.0, 1.0, 1.0, 2, "cos")


class TestScanSemantics:
    def test_degenerate_region_repeats_corner(self):
        ps = scan_raw(0.0, 0.0, 0.0, 0.0, 2, COS)
        assert ps.scanned == 4
        assert len(ps) == 4
        assert oracles.survivors(ps) == [(0.0, 0.0)] * 4
        text = format_points(ps)
        assert text.count("\n") == 4
        assert set(text.splitlines()) == {"%25s %25s" % ("0", "0")}

    def test_scan_order_is_row_major_in_x(self):
        # one cosine application keeps every sample far below the bound,
        # so the full grid survives and the ordering is observable
        ps = scan_raw(
            0.0, 0.0, 2.0, 2.0, 3, COS, EscapeParams(iterations=1, threshold_sq=1e30)
        )
        assert ps.scanned == 9
        expected = [(x, y) for x in (0.0, 1.0, 2.0) for y in (0.0, 1.0, 2.0)]
        assert oracles.survivors(ps) == expected

    def test_matches_straightline_oracle(self):
        regions = [
            (-2.2, -1.7, 1.3, 2.9, 23),
            (2.5, 2.5, -2.5, -2.5, 9),  # reversed corners scan descending
            (-0.0, -0.0, 1.0, 1.0, 7),
            (-1.0, -1.0, 1.0, 1.0, 16),
            (0.0, 0.0, -0.0, -0.0, 4),  # zero steps keep the signed corners
            (-0.0, 1.0, 0.0, -1.0, 5),  # only the first sample keeps -0.0
            # the real step -5e-324 / 2 underflows to -0.0, which row 1 must not keep
            (-0.0, -1.0, -5e-324, 1.0, 3),
        ]
        for name, kind in (("cos", COS), ("sin", SIN)):
            for x1, y1, x2, y2, n in regions:
                ps = scan_raw(x1, y1, x2, y2, n, kind)
                assert format_points(ps) == oracles.straightline_scan(
                    x1, y1, x2, y2, n, name
                ), (name, x1, y1, x2, y2, n)

    # "0.5" and True used to be scanned, and 10**400 raised OverflowError
    @pytest.mark.parametrize("value", ["0.5", True, None, 0.5 + 0j, 10**400], ids=repr)
    @pytest.mark.parametrize("corner", range(4), ids=["x1", "y1", "x2", "y2"])
    def test_corners_refuse_what_is_not_a_real_number(self, corner, value):
        corners = [0.0, 0.0, 1.0, 1.0]
        corners[corner] = value
        name = ("x1", "y1", "x2", "y2")[corner]
        with pytest.raises(ValueError, match=rf"^{name} must be a real number, got .*(real number|double range)"):
            scan_raw(*corners, 2, COS)

    def test_grid_validation(self):
        with pytest.raises(ValueError, match=">= 2"):
            scan_raw(0.0, 0.0, 1.0, 1.0, 1, COS)
        with pytest.raises(ValueError, match=">= 2"):
            scan_raw(0.0, 0.0, 1.0, 1.0, 0, COS)

    def test_scan_raw_preserves_corner_order(self):
        ps = scan_raw(
            2.5, 2.5, -2.5, -2.5, 5, COS, EscapeParams(iterations=1, threshold_sq=1e30)
        )
        points = oracles.survivors(ps)
        assert points[0] == (2.5, 2.5)
        assert points[-1] == (-2.5, -2.5)


def record_tiles(monkeypatch):
    """Row count of every kernel call that scans make from now on."""
    rows = []
    survive = fractal._kernels.survive

    def recording(xs, *args):
        rows.append(len(xs))
        return survive(xs, *args)

    monkeypatch.setattr(fractal._kernels, "survive", recording)
    return rows


def record_orbit_sets(monkeypatch):
    """(first step, cells) of every orbit set the Mandelbrot kernel runs from now on.

    A tile's set starts at step 1 and holds only its own cells; a joined
    set starts after the first compaction, at COMPACTION_STRIDE + 1.
    """
    sets = []
    steps = _kernels._mandelbrot_steps

    def recording(a, b, cr, ci, cells, *args):
        sets.append((args[0].start, cells.copy()))
        return steps(a, b, cr, ci, cells, *args)

    monkeypatch.setattr(_kernels, "_mandelbrot_steps", recording)
    return sets


def tile_spans(sets, cols):
    """The rows [first, last] of the cells of each tile's set."""
    return [(cells.min() // cols, cells.max() // cols) for start, cells in sets if start == 1 and cells.size]


class TestActiveSetKernel:
    REGIONS = [
        (-2.2, -1.7, 1.3, 2.9, 23),
        (0.6, 1.3, -2.1, -1.2, 19),  # reversed corners scan descending
        (-0.0, -0.0, 1.0, 1.0, 7),
    ]

    # 5-row tiles over 23 rows leave a ragged 3-row tile; 1 cell forces one-row tiles
    @pytest.mark.parametrize("tile_cells", [1 << 15, 5 * 23, 1], ids=["one", "ragged", "rows"])
    @pytest.mark.parametrize("early_exit", [False, True], ids=["final", "early"])
    # below |z| = 1 many bounded orbits cross the threshold and come back,
    # so early exit changes the outcome of some cells
    @pytest.mark.parametrize("threshold", [10.0, 1.0])
    # orbits are compacted every COMPACTION_STRIDE = 8 steps: counts on
    # both sides of the first two compactions, and none at all
    @pytest.mark.parametrize("iterations", [0, 1, 2, 7, 8, 9, 15, 16, 17, 60], ids=lambda n: f"n{n}")
    def test_mandelbrot_scans_match_scalar_oracle(self, monkeypatch, iterations, threshold, early_exit, tile_cells):
        params = EscapeParams(iterations=iterations, threshold_sq=threshold, early_exit=early_exit)
        whole = {r: scan_raw(*r, MANDELBROT, params) for r in self.REGIONS}
        monkeypatch.setattr(_kernels, "_TILE_CELLS", tile_cells)
        rows = record_tiles(monkeypatch)
        sets = record_orbit_sets(monkeypatch)
        spans = []
        for region in self.REGIONS:
            del sets[:]
            ps = scan_raw(*region, MANDELBROT, params)
            expected = oracles.quadratic_scan(*region, None, iterations, threshold, early_exit)
            assert format_points(ps) == expected, region
            assert np.array_equal(ps.mask, whole[region].mask)
            assert format_points(ps, padded=False) == format_points(whole[region], padded=False)
            spans.append(tile_spans(sets, region[-1]))
        # one kernel call per scan, over the whole grid, which the kernel cuts into tiles
        assert rows == [r[-1] for r in self.REGIONS]
        if iterations and threshold == 1.0:  # below 4 no cell is marked interior, so every tile runs
            if tile_cells == 5 * 23:
                assert spans[0] == [(0, 4), (5, 9), (10, 14), (15, 19), (20, 22)]
            if tile_cells == 1:
                assert spans == [[(r, r) for r in range(region[-1])] for region in self.REGIONS]

    # Tiles of 2, 3 and 7 rows over a 40-row grid whose live orbits after the
    # first compaction fill a joined set within a few tiles, so sets are run
    # in the middle of the scan as well as at its end.
    FLUSHED = [
        (-0.8, 0.05, -0.7, 0.15, 40),  # boundary windows: many orbits live on after step 8
        (-1.8, -0.1, -1.7, 0.0, 40),
    ]

    @pytest.mark.parametrize("tile_rows", [2, 3, 7])
    @pytest.mark.parametrize("early_exit", [False, True], ids=["final", "early"])
    @pytest.mark.parametrize("iterations", [1, 7, 8, 9, 16, 17], ids=lambda n: f"n{n}")
    def test_joined_sets_run_mid_scan_match_scalar_oracle(self, monkeypatch, iterations, early_exit, tile_rows):
        params = EscapeParams(iterations=iterations, early_exit=early_exit)
        monkeypatch.setattr(_kernels, "_TILE_CELLS", tile_rows * 40)
        sets = record_orbit_sets(monkeypatch)
        for region in self.FLUSHED:
            del sets[:]
            ps = scan_raw(*region, MANDELBROT, params)
            assert format_points(ps) == oracles.quadratic_scan(*region, None, iterations, 10.0, early_exit), region
            joined = [cells for start, cells in sets if start > 1]
            if iterations <= _kernels.COMPACTION_STRIDE + 1:
                assert not joined  # the scan ends inside each tile
                continue
            assert len(joined) > 1, "no set ran before the end of the scan"
            assert max(len(np.unique(cells // 40)) for cells in joined) > tile_rows, "no set joined two tiles"
            # each set holds at most one tile of orbits, every live cell once, in scan order
            assert max(cells.size for cells in joined) <= tile_rows * 40
            order = np.concatenate(joined)
            assert np.array_equal(order, np.unique(order))

    @pytest.mark.parametrize("early_exit", [False, True], ids=["final", "early"])
    def test_all_survive_window_runs_one_tile_per_set(self, monkeypatch, early_exit):
        # inside the period-4 bulb, which the interior pre-pass leaves to the
        # steps: every orbit lives to the end, so each set is one full tile
        region = (-1.315, -0.005, -1.305, 0.005, 30)
        params = EscapeParams(iterations=40, early_exit=early_exit)
        monkeypatch.setattr(_kernels, "_TILE_CELLS", 4 * 30)
        sets = record_orbit_sets(monkeypatch)
        ps = scan_raw(*region, MANDELBROT, params)
        assert ps.mask.all()
        assert format_points(ps) == oracles.quadratic_scan(*region, None, 40, 10.0, early_exit)
        joined = [cells for start, cells in sets if start > 1]
        assert [cells.size for cells in joined] == [4 * 30] * 7 + [2 * 30]

    @pytest.mark.parametrize("early_exit", [False, True], ids=["final", "early"])
    def test_an_escaped_orbit_that_returns_stays_escaped(self, early_exit):
        # from c = -1.5, z_1 = -1.5 is past threshold 1 and z_2 = 0.75 is back below it
        params = EscapeParams(iterations=2, threshold_sq=1.0, early_exit=early_exit)
        assert oracles.quadratic_survives(0j, -1.5, 2, 1.0, early_exit) is not early_exit
        assert survives(-1.5 + 0j, MANDELBROT, params) is not early_exit


class TestDeterminism:
    @staticmethod
    def outputs_by_workers(monkeypatch, mapping, params, workers):
        # 5-row tiles give 13 tiles over 64 rows, and claiming 8 CPUs lets
        # every worker count above 1 start several threads; a short switch
        # interval interleaves them often
        monkeypatch.setattr(_kernels, "_TILE_CELLS", 5 * 64)
        monkeypatch.setattr(fractal, "_usable_cpus", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            return [
                format_points(scan_raw(-2.5, -2.5, 2.5, 2.5, 64, mapping, params, workers=w))
                for w in workers
            ]
        finally:
            sys.setswitchinterval(interval)

    def test_worker_count_does_not_change_bytes(self, monkeypatch):
        texts = self.outputs_by_workers(monkeypatch, COS, EscapeParams(), (1, 2, 3, 8, 64, 200))
        assert texts[0]
        assert all(t == texts[0] for t in texts)

    def test_worker_count_does_not_change_early_exit_bytes(self, monkeypatch):
        params = EscapeParams(iterations=80, early_exit=True)
        texts = self.outputs_by_workers(monkeypatch, MANDELBROT, params, (1, 2, 3, 8))
        assert texts[0]
        assert all(t == texts[0] for t in texts)

    def test_workers_beyond_rows_are_safe(self):
        a = scan_raw(-1.0, -1.0, 1.0, 1.0, 3, SIN, workers=50)
        b = scan_raw(-1.0, -1.0, 1.0, 1.0, 3, SIN, workers=1)
        assert np.array_equal(a.mask, b.mask)
        assert format_points(a) == format_points(b)

    def test_central_symmetry_bitwise(self):
        # Exact-binary region: step 3.125 / 100 = 2**-5, so every sample
        # coordinate is exactly the negative of its mirror and cos/sin
        # orbits mirror bitwise.
        n = 101
        for kind in (COS, SIN):
            ps = scan_raw(-1.5625, -1.5625, 1.5625, 1.5625, n, kind)
            m = ps.mask
            assert np.array_equal(m, m[::-1, ::-1])


class RecordingPool:
    """ThreadPoolExecutor stand-in: records max_workers, runs tiles inline."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.fixture
def pool_sizes(monkeypatch):
    """max_workers of every scan's pool; workers run inline, no thread starts.

    A scan with one worker runs on the calling thread and makes no pool.
    """
    sizes = []
    monkeypatch.setattr(
        fractal, "ThreadPoolExecutor", lambda max_workers: RecordingPool(sizes, max_workers)
    )
    monkeypatch.setattr(fractal.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    return sizes


class TestThreadPool:
    @pytest.mark.parametrize(
        "workers,expected", [(None, 3), (1, 1), (2, 2), (5000, 3)], ids=["default", "1", "2", "5000"]
    )
    def test_pool_is_bounded_by_workers_and_usable_cpus(
        self, monkeypatch, pool_sizes, workers, expected
    ):
        monkeypatch.setattr(_kernels, "_TILE_CELLS", 40)  # one row per tile: 40 tiles
        rows = record_tiles(monkeypatch)
        scan_raw(-1.0, -1.0, 1.0, 1.0, 40, COS, workers=workers)
        assert pool_sizes == ([expected] if expected > 1 else [])
        # one kernel call per worker, on every expected-th row
        assert rows == [len(range(k, 40, expected)) for k in range(expected)]

    def test_pool_is_bounded_by_tiles(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(_kernels, "_TILE_CELLS", 2 * 9)  # rows 0-1, ..., 8: 5 tiles
        rows = record_tiles(monkeypatch)
        scan_raw(-1.0, -1.0, 1.0, 1.0, 9, COS, workers=5000)
        scan_raw(-1.0, -1.0, 1.0, 1.0, 2, COS, workers=5000)
        assert pool_sizes == [3]  # the grid-2 scan is one tile, on the calling thread
        assert rows == [3, 3, 3, 2]

    def test_default_falls_back_to_cpu_count(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(_kernels, "_TILE_CELLS", 40)
        monkeypatch.delattr(fractal.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(fractal.os, "cpu_count", lambda: 4)
        scan_raw(-1.0, -1.0, 1.0, 1.0, 40, COS)
        monkeypatch.setattr(fractal.os, "cpu_count", lambda: None)
        rows = record_tiles(monkeypatch)
        scan_raw(-1.0, -1.0, 1.0, 1.0, 40, COS)
        assert pool_sizes == [4]
        assert rows == [40]  # one CPU: the calling thread

    @pytest.mark.parametrize("workers", [None, 1, 2, 5000], ids=["default", "1", "2", "5000"])
    def test_mandelbrot_uses_one_thread(self, monkeypatch, pool_sizes, workers):
        monkeypatch.setattr(_kernels, "_TILE_CELLS", 40)
        rows = record_tiles(monkeypatch)
        scan_raw(-1.0, -1.0, 1.0, 1.0, 40, MANDELBROT, workers=workers)
        # no pool: one kernel call over the whole grid, on the calling thread
        assert pool_sizes == []
        assert rows == [40]

    def test_cli_workers_flag_is_capped(self, monkeypatch, capsys, pool_sizes):
        from trigiter.cli import main

        monkeypatch.setattr(_kernels, "_TILE_CELLS", 40)
        assert main(["julia", "--f", "cos", "--grid", "40", "--workers", "5000"]) == 0
        assert capsys.readouterr().out
        assert main(["mandelbrot", "--grid", "40", "--workers", "5000"]) == 0
        assert capsys.readouterr().out
        assert pool_sizes == [3]

    @pytest.mark.parametrize("mapping", [COS, MANDELBROT], ids=["cos", "mandelbrot"])
    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, workers, mapping):
        with pytest.raises(ValueError, match="workers"):
            scan_raw(-1.0, -1.0, 1.0, 1.0, 4, mapping, workers=workers)


class TestEscapeParams:
    def test_defaults(self):
        p = EscapeParams()
        assert p.iterations == 50
        assert p.threshold_sq == 10.0
        assert p.early_exit is False

    def test_validation(self):
        with pytest.raises(ValueError):
            EscapeParams(iterations=-1)
        with pytest.raises(ValueError):
            EscapeParams(threshold_sq=math.nan)

    def test_threshold_monotonicity(self):
        small = scan_raw(-2.5, -2.5, 2.5, 2.5, 21, COS, EscapeParams(threshold_sq=10.0))
        large = scan_raw(
            -2.5, -2.5, 2.5, 2.5, 21, COS, EscapeParams(threshold_sq=100.0)
        )
        assert np.all(small.mask <= large.mask)
        # reaching norm 100 implies reaching norm 10 first, so with early
        # exit a larger threshold strictly admits more points
        s = scan_raw(
            -2.5, -2.5, 2.5, 2.5, 21, COS,
            EscapeParams(threshold_sq=10.0, early_exit=True),
        )
        l = scan_raw(
            -2.5, -2.5, 2.5, 2.5, 21, COS,
            EscapeParams(threshold_sq=100.0, early_exit=True),
        )
        assert np.all(s.mask <= l.mask)
        assert s.mask.sum() < l.mask.sum()

    def test_zero_iterations_tests_initial_point(self):
        params = EscapeParams(iterations=0, threshold_sq=10.0)
        assert survives(0j, COS, params) is True
        assert survives(4.0 + 0.0j, COS, params) is False


class TestStartPoint:
    # |3|^2 = 9 reaches threshold 5, and every later cos iterate lies in
    # [-1, 1]: only the test of z_0 itself can reject the orbit.
    @pytest.mark.parametrize("tile_cells", [1, None], ids=["one-row", "default"])
    @pytest.mark.parametrize("iterations", [1, 2, 50])
    @pytest.mark.parametrize("early_exit", [False, True], ids=["final", "early"])
    def test_early_exit_tests_the_start_point(self, monkeypatch, early_exit, iterations, tile_cells):
        if tile_cells is not None:
            monkeypatch.setattr(_kernels, "_TILE_CELLS", tile_cells)
        params = EscapeParams(iterations, 5.0, early_exit)
        want = not early_exit
        assert oracles.orbit_survives(3.0 + 0j, "cos", iterations, 5.0, early_exit) is want
        assert survives(3.0 + 0j, COS, params) is want
        # rows 0, 1, 2, 3: only row 3 starts past the threshold
        ps = scan_raw(0.0, 0.0, 3.0, 1.0, 4, COS, params)
        assert ps.xs[3] == 3.0 and ps.ys[0] == 0.0
        assert ps.mask[3, 0] == want
        assert ps.mask[:3, 0].all()


class TestRealAxisCoverage:
    @pytest.mark.parametrize("kind", [COS, SIN])
    def test_odd_grid_hits_exact_real_axis(self, kind):
        ps = scan_raw(-2.0, -2.0, 2.0, 2.0, 5, kind)
        axis = [re for re, im in oracles.survivors(ps) if im == 0.0]
        # real orbits of cos/sin stay in [-1, 1]: every axis sample survives
        assert sorted(axis) == [-2.0, -1.0, 0.0, 1.0, 2.0]


class TestPointSet:
    @staticmethod
    def full_scan(x1=0.0):
        # one cosine step under a huge bound: every cell of the 2x2 grid survives
        return scan_raw(x1, 0.0, 1.0, 1.0, 2, COS, EscapeParams(iterations=1, threshold_sq=1e30))

    def test_survivors_are_the_mask_in_scan_order(self):
        ps = self.full_scan()
        assert ps.scanned == 4
        assert len(ps) == 4
        assert ps.mask.tolist() == [[True, True], [True, True]]
        assert (ps.xs.tolist(), ps.ys.tolist()) == ([0.0, 1.0], [0.0, 1.0])
        assert format_points(ps, padded=False).splitlines() == ["0 0", "0 1", "1 0", "1 1"]

    def test_len_counts_survivors(self):
        ps = scan_raw(-2.5, -2.5, 2.5, 2.5, 21, COS)
        assert 0 < len(ps) < ps.scanned == 21 * 21
        assert len(ps) == int(ps.mask.sum())

    def test_fields_are_mask_and_axes(self):
        ps = scan_raw(1.0, 3.0, -1.0, 2.0, 3, SIN, EscapeParams(iterations=0, threshold_sq=1e30))
        assert ps.mask.shape == (3, 3) and ps.mask.all()
        assert ps.xs.tolist() == [1.0, 0.0, -1.0]
        assert ps.ys.tolist() == [3.0, 2.5, 2.0]
        assert [f.name for f in dataclasses.fields(ps)] == ["mask", "xs", "ys"]

    def test_negative_zero_first_point(self):
        ps = self.full_scan(x1=-0.0)
        assert math.copysign(1.0, ps.xs[0]) == -1.0
        assert [math.copysign(1.0, re) for re, im in oracles.survivors(ps)] == [-1.0, 1.0, 1.0, 1.0]
        first_two = ["%25s %25s" % ("-0", "0"), "%25s %25s" % ("0", "1")]
        assert format_points(ps).splitlines()[:2] == first_two
        assert format_points(ps, padded=False).splitlines()[:2] == ["-0 0", "0 1"]

    @pytest.mark.parametrize("name", ["mask", "xs", "ys"])
    def test_arrays_are_read_only(self, name):
        ps = scan_raw(0.0, 0.0, 1.0, 1.0, 2, COS)
        with pytest.raises(ValueError):
            getattr(ps, name)[0] = 0

    def test_caller_arrays_are_copied(self):
        mask, xs, ys = np.ones((2, 3), dtype=bool), np.array([0.0, 1.0]), np.array([0.0, 1.0, 2.0])
        ps = PointSet(mask, xs, ys)
        assert mask.flags.writeable and xs.flags.writeable and ys.flags.writeable
        mask[0, 0], xs[0], ys[0] = False, 5.0, 5.0
        assert ps.mask[0, 0] and ps.xs[0] == 0.0 and ps.ys[0] == 0.0

    @pytest.mark.parametrize(
        "xs,ys",
        [(np.zeros(3), np.zeros(2)), (np.zeros(2), np.zeros(3)), (np.zeros((2, 1)), np.zeros(2))],
        ids=["rows", "columns", "two-dimensional"],
    )
    def test_validation(self, xs, ys):
        with pytest.raises(ValueError, match="axis lengths"):
            PointSet(np.zeros((2, 2), dtype=bool), xs, ys)

    @pytest.mark.parametrize(
        "mask", [np.zeros((2, 2), dtype=int), np.zeros(4, dtype=bool)], ids=["int", "flat"]
    )
    def test_mask_must_be_a_boolean_matrix(self, mask):
        with pytest.raises(ValueError, match="mask"):
            PointSet(mask, np.zeros(2), np.zeros(2))


class TestGridCap:
    @pytest.fixture
    def no_allocation(self, monkeypatch):
        """Fail the test if a scan gets as far as building an axis or a tile."""

        def refuse(*args):
            raise AssertionError("allocated before the grid was checked")

        monkeypatch.setattr(fractal, "_cumulative_axis", refuse)
        monkeypatch.setattr(fractal._kernels, "survive", refuse)

    def test_cap_comes_from_the_budget(self):
        cell_bytes = 52 + 1  # worst-case gnuplot line and mask byte
        cap = fractal.MAX_GRID
        assert cap * cap * cell_bytes <= iteration._SCAN_BUDGET_BYTES < (cap + 1) ** 2 * cell_bytes

    @pytest.mark.parametrize("grid", [fractal.MAX_GRID + 1, 10**12])
    def test_scan_raw_rejects_grid_over_cap(self, no_allocation, grid):
        with pytest.raises(ValueError, match=f"<= {fractal.MAX_GRID}"):
            scan_raw(0.0, 0.0, 1.0, 1.0, grid, COS)

    def test_scan_raw_admits_the_cap(self, no_allocation):
        # past every check, the scan reaches the refused axis allocation
        with pytest.raises(AssertionError, match="allocated"):
            scan_raw(0.0, 0.0, 1.0, 1.0, fractal.MAX_GRID, COS)


    def test_iterations_cap_admits_the_scans_in_use(self):
        # the legacy scanner's 50 iterations at the largest grid, and up
        # to 400 iterations at grid 1000
        assert fractal._max_iterations(fractal.MAX_GRID) >= 50
        assert fractal._max_iterations(1000) >= 400
        assert iteration.MAX_ITERATIONS == fractal._max_iterations(2)

    def test_iterations_cap_comes_from_the_work_budget(self):
        for grid in (2, 40, 1000, fractal.MAX_GRID):
            cap = fractal._max_iterations(grid)
            per_step = grid * grid + iteration._STEP_OVERHEAD_CELLS
            assert cap * per_step <= iteration._SCAN_WORK_BUDGET < (cap + 1) * per_step

    @pytest.mark.parametrize(
        "grid, iterations",
        [(2, iteration.MAX_ITERATIONS + 1), (fractal.MAX_GRID, 53), (40, 10**12)],
    )
    def test_scan_raw_rejects_iterations_over_cap(self, no_allocation, grid, iterations):
        cap = fractal._max_iterations(grid)
        with pytest.raises(ValueError, match=f"iterations at grid {grid} .*<= {cap},"):
            scan_raw(0.0, 0.0, 1.0, 1.0, grid, COS, EscapeParams(iterations))


def one_cell(re, im, alive=True):
    """A PointSet of one cell at re + im*i."""
    return PointSet(np.full((1, 1), alive), [re], [im])


class TestFormatting:
    def test_padded_line(self):
        line = format_points(one_cell(-2.5, 1.25))
        assert line == "%25s %25s\n" % ("-2.5", "1.25")
        assert len(line) == 52

    def test_plain_line(self):
        assert format_points(one_cell(-2.5, 1.25), padded=False) == "-2.5 1.25\n"

    def test_sixteen_significant_digits(self):
        line = format_points(one_cell(1 / 3, 0.0), padded=False)
        assert line.split()[0] == "0.3333333333333333"

    def test_format_points_empty(self):
        assert format_points(one_cell(0.0, 0.0, alive=False)) == ""
        assert format_points(one_cell(0.0, 0.0)) == "%25s %25s\n" % ("0", "0")
