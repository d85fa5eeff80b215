"""Trap regions of the scan kernel against scalar oracles and the full iteration.

An orbit that enters its map's trap is marked as surviving and dropped
from the active set.  These tests check the constants each trap's proof
rests on in interval arithmetic, compare cells placed just inside and
just outside each trap with the scalar oracles, compare whole grids with
the kernel run with its traps turned off, and fail if the traps stop
firing.  They also check the escape lemma behind the Mandelbrot drop:
past the scan's escape radius every float step grows |z|^2.
"""

import cmath
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import iv

import oracles
from trigiter import MANDELBROT, DOTTIE, EscapeParams, TrigKind, format_points, scan_raw
from trigiter import _kernels, fractal

COS = TrigKind.COSINE
SIN = TrigKind.SINE


def sinh(t):
    return (iv.exp(t) - iv.exp(-t)) / 2


def cosh(t):
    return (iv.exp(t) + iv.exp(-t)) / 2


class TestTrapConstants:
    def test_cos_maps_the_dottie_rectangle_into_itself(self):
        # On R, cos x is in [cos X, 1] and |sin x| <= sin X for |x| <= X;
        # cosh y is in [1, cosh Y] and |sinh y| <= sinh Y for |y| <= Y.
        x = iv.mpf(_kernels._RECTANGLE_RE)  # the doubles the float test compares with
        y = iv.mpf(_kernels._RECTANGLE_IM)
        low = iv.cos(x)
        high = cosh(y)
        sup_im = iv.sin(x) * sinh(y)
        assert low.a > 0.3623 and high.b < 1.1855 and sup_im.b < 0.5934
        assert (x - high).a > 0.0145
        assert (y - sup_im).a > 0.0066
        # one float step over a lattice on R, its sides included, stays inside with room to spare
        side_re, side_im = _kernels._RECTANGLE_RE, _kernels._RECTANGLE_IM
        a, b = np.meshgrid(np.linspace(-side_re, side_re, 241), np.linspace(-side_im, side_im, 121), indexing="ij")
        re, im = np.cos(a) * np.cosh(b), -np.sin(a) * np.sinh(b)
        assert re.min() > 0.3623 and re.max() < side_re - 0.0145
        assert np.abs(im).max() < side_im - 0.0066

    def test_dottie_rectangle_lies_below_its_threshold(self):
        x = iv.mpf(_kernels._RECTANGLE_RE)
        y = iv.mpf(_kernels._RECTANGLE_IM)
        reach = x**2 + y**2
        assert reach.b <= 1.8
        # the float |z|^2 rounds three times: a relative 1e-15 at most
        assert (reach * (1 + iv.mpf("1e-15"))).b < _kernels.DOTTIE_RECTANGLE_THRESHOLD
        # the rectangle holds the disk B(D, 0.34), the trap below its threshold
        assert DOTTIE + 0.34 < _kernels._RECTANGLE_RE and 0.34 < _kernels._RECTANGLE_IM

    def test_cos_maps_the_dottie_disk_into_itself(self):
        # |sin w|^2 = sin^2 x + sinh^2 y, bounded over the square around the disk
        radius = iv.mpf("0.34")
        x = iv.mpf(DOTTIE) + iv.mpf(["-0.34", "0.34"])
        y = iv.mpf(["-0.34", "0.34"])
        sup_sin = iv.sqrt(iv.sin(x) ** 2 + sinh(y) ** 2)
        assert sup_sin.b < 0.9473
        image_radius = sup_sin * radius
        assert image_radius.b < 0.3221
        assert (radius - image_radius).a > 0.0179
        # the float test admits squared distances below 0.34 * 0.34 as rounded
        assert iv.mpf(_kernels._DISK_RADIUS_SQ).b < (radius * (1 + iv.mpf("1e-15")) ** 2).a

    def test_dottie_disk_lies_below_its_threshold(self):
        reach = (iv.mpf(DOTTIE) + iv.mpf("0.34")) ** 2
        assert reach.b < 1.1645 < _kernels.DOTTIE_DISK_THRESHOLD

    @pytest.mark.parametrize(
        "threshold, trap",
        [(1.17, None), (1.1700000000000002, "_in_dottie_disk"), (1.81, "_in_dottie_disk"),
         (1.8100000000000003, "_in_dottie_rectangle"), (10.0, "_in_dottie_rectangle")],
    )
    def test_cos_takes_the_largest_trap_below_the_threshold(self, threshold, trap):
        got = _kernels._trap(COS, threshold)
        assert got is (trap and getattr(_kernels, trap))

    def test_sine_petal_stays_in_the_right_half_strip(self):
        # |y| <= |x|/2 <= pi/4 while |x| < pi/2, so |Re sin z| <= cosh(pi/4)
        bound = cosh(iv.pi / 4)
        assert bound.b < _kernels._PETAL_REACH < (iv.pi / 2).a
        # slope creep: a relative 1e-15 per step over the most iterations
        creep = iv.mpf(_kernels._PETAL_SLOPE) * (1 + iv.mpf("1e-15")) ** fractal.MAX_ITERATIONS
        assert creep.b < 0.5

    def test_sine_petal_lies_below_its_threshold(self):
        reach = iv.mpf(_kernels._PETAL_REACH) ** 2 * (1 + iv.mpf(_kernels._PETAL_SLOPE) ** 2)
        assert reach.b < _kernels.SINE_PETAL_THRESHOLD
        # every later iterate: |Re| <= cosh(pi/4) at the same slope bound
        later = cosh(iv.pi / 4) ** 2 * (1 + iv.mpf("0.5") ** 2)
        assert later.b < _kernels.SINE_PETAL_THRESHOLD


def kernel_cells(points, mapping, iterations, threshold, early_exit):
    """Kernel outcome for each point: the diagonal of the grid of their parts."""
    xs = np.array([z.real for z in points])
    ys = np.array([z.imag for z in points])
    grid = _kernels.survive(xs, ys, mapping, threshold, early_exit, iterations)
    return np.diagonal(grid).tolist()


def near(z, scale):
    """z pushed a relative `scale` away from the origin and towards it."""
    return [z * (1 + scale), z * (1 - scale)]


# Points on the disk's rim at a spread of angles, just inside and outside.
DISK_EDGE = [
    p
    for k in range(12)
    for p in near(0.34 * cmath.exp(2j * math.pi * (k + 0.25) / 12), 1e-9)
]
DISK_CELLS = [DOTTIE + w for w in DISK_EDGE] + [complex(DOTTIE, 0.0), 0.5 + 0.1j]


def across_side(x, y, scale):
    """(x, y) on a side of the Dottie rectangle, pushed a relative `scale` out and in."""

    def push(t, edge, by):
        return t * (1 + by) if abs(t) == edge else t

    re, im = _kernels._RECTANGLE_RE, _kernels._RECTANGLE_IM
    return [complex(push(x, re, s), push(y, im, s)) for s in (scale, -scale)]


# Points on the rectangle's four sides and corners, just outside and inside.
SIDES = [(s * 1.2, y) for s in (1, -1) for y in (-0.6, -0.3, 0.0, 0.45, 0.6)] + [
    (x, s * 0.6) for s in (1, -1) for x in (-0.7, 0.0, 0.2, 1.1)
]
RECT_EDGE = [p for x, y in SIDES for p in across_side(x, y, 1e-9)]
# Doubles exactly on the sides are inside; the next double out is not.
RECT_EXACT = [complex(1.2, 0.6), complex(-1.2, -0.6), complex(math.nextafter(1.2, 2), 0.0),
              complex(0.0, math.nextafter(-0.6, -1))]
RECT_CELLS = RECT_EDGE + RECT_EXACT + [complex(DOTTIE, 0.0), 0.5 + 0.1j]

# Points on both petals' edges: the slope, the reach, and near the axis.
PETAL_CELLS = [
    s * p
    for s in (1, -1)
    for x in (1e-3, 0.3, 1.0, 1.5)
    for t in (1, -1)
    for p in ([complex(x, t * 0.49 * x * (1 + 1e-9)), complex(x, t * 0.49 * x * (1 - 1e-9))])
] + [
    complex(1.5 * (1 + 1e-9), 0.2),
    complex(1.5 * (1 - 1e-9), 0.2),
    complex(1.5 + 2**-52, 0.0),
    5e-324 + 0j,
    -5e-324 + 0j,
    0j,
    0.2j,
]

CASES = {
    "cos": ("cos", COS, DISK_CELLS, _kernels.DOTTIE_DISK_THRESHOLD),
    "cos-rectangle": ("cos", COS, RECT_CELLS, _kernels.DOTTIE_RECTANGLE_THRESHOLD),
    "sin": ("sin", SIN, PETAL_CELLS, _kernels.SINE_PETAL_THRESHOLD),
}


class TestTrapEdges:
    @pytest.mark.parametrize("early_exit", [False, True], ids=["final", "early"])
    @pytest.mark.parametrize("iterations", [0, 1, 2, 10**4])
    @pytest.mark.parametrize("offset", [-2**-40, 0.0, 2**-40, 7.2])
    @pytest.mark.parametrize("case", CASES)
    def test_cells_at_each_trap_edge_match_the_orbit_oracle(self, case, offset, iterations, early_exit):
        name, mapping, cells, bound = CASES[case]
        threshold = bound + offset
        got = kernel_cells(cells, mapping, iterations, threshold, early_exit)
        want = [oracles.orbit_survives(z, name, iterations, threshold, early_exit) for z in cells]
        assert got == want

    def test_edges_are_inside_and_outside_the_traps(self):
        # each trap test takes the real part and |Im z|, which the kernel computes once per step
        disk = _kernels._in_dottie_disk(np.real(DISK_EDGE) + DOTTIE, np.abs(np.imag(DISK_EDGE)))
        assert disk.tolist() == [False, True] * 12  # outside, inside
        rectangle = _kernels._in_dottie_rectangle(np.real(RECT_EDGE), np.abs(np.imag(RECT_EDGE)))
        assert rectangle.tolist() == [False, True] * len(SIDES)  # outside, inside
        exact = _kernels._in_dottie_rectangle(np.real(RECT_EXACT), np.abs(np.imag(RECT_EXACT)))
        assert exact.tolist() == [True, True, False, False]
        nonfinite = np.array([math.nan, math.inf, -math.inf])
        assert not _kernels._in_dottie_rectangle(nonfinite, np.zeros(3)).any()
        assert not _kernels._in_dottie_rectangle(np.zeros(3), np.abs(nonfinite)).any()
        petal = _kernels._in_sine_petal(np.real(PETAL_CELLS), np.abs(np.imag(PETAL_CELLS)))
        assert petal.sum() == 16 + 1 + 2


@pytest.fixture
def no_traps(monkeypatch):
    """Run the kernel as a full iteration: every trap and the overflow drop turned off."""

    def run(function, *args):
        with monkeypatch.context() as m:
            m.setattr(_kernels, "_trap", lambda mapping, threshold: None)
            m.setattr(_kernels, "OVERFLOW_IM", math.inf)
            m.setattr(_kernels, "MANDELBROT_INTERIOR_THRESHOLD", math.inf)
            return function(*args)

    return run


class TestTrapsKeepTheFullIteration:
    # the plane, around the Dottie number, the cardioid and period-2 bulb, an upper period-3 bulb, the minibrot
    REGIONS = [(-2.5, -2.5, 2.5, 2.5, 61), (0.2, -0.6, 1.4, 0.6, 40), (-2.1, -1.3, 0.7, 1.3, 53),
               (-0.24, 0.62, -0.01, 0.87, 47), (-1.78, -0.02, -1.73, 0.02, 41)]
    MAPS = {
        "cos": (COS, (1.16, 1.1700000000000002, 1.8, 1.8100000000000003, 10.0)),
        "sin": (SIN, (2.79, 2.8000000000000003, 10.0)),
        "mandelbrot": (MANDELBROT, (3.99, 4.000000000000001, 10.0)),
    }

    @pytest.mark.parametrize("early_exit", [False, True], ids=["final", "early"])
    @pytest.mark.parametrize("iterations", [1, 50, 300])
    @pytest.mark.parametrize("name", MAPS)
    def test_masks_and_bytes_equal_the_untrapped_kernel(self, no_traps, name, iterations, early_exit):
        mapping, thresholds = self.MAPS[name]
        for threshold in thresholds:
            params = EscapeParams(iterations, threshold, early_exit)
            for region in self.REGIONS:
                fast = scan_raw(*region, mapping, params)
                full = no_traps(scan_raw, *region, mapping, params)
                assert np.array_equal(fast.mask, full.mask), (threshold, region)
                for padded in (True, False):
                    assert format_points(fast, padded) == format_points(full, padded)

    # cos and sin regions of grids 47, 41 and 43, the last asymmetric in x, so
    # that rows written to another worker's place show; 41 cells cut one-row
    # tiles and 3 * 47 three-row tiles on each
    ROW_SETS = [(-2.5, -2.5, 2.5, 2.5, 47), (0.2, -0.6, 1.4, 0.6, 41), (-0.9, -1.3, 2.3, 0.8, 43)]

    @pytest.mark.parametrize("early_exit", [False, True], ids=["final", "early"])
    # 9 ends the scan in each tile's steps; at 10 the joined tail runs one step
    @pytest.mark.parametrize("iterations", [9, 10, 50, 300])
    @pytest.mark.parametrize("name", ["cos", "sin"])
    def test_worker_rows_and_joined_tails_equal_the_untrapped_kernel(self, monkeypatch, no_traps, name, iterations,
                                                                    early_exit):
        # each of 1-3 workers scans every n-th row, cut into tiles whose live
        # orbits join sets after step COMPACTION_STRIDE; the untrapped kernel
        # runs the same tail, so it is checked against every step on every cell
        mapping, thresholds = self.MAPS[name]
        monkeypatch.setattr(fractal, "_usable_cpus", lambda: 3)
        for threshold in thresholds:
            params = EscapeParams(iterations, threshold, early_exit)
            for region in self.ROW_SETS:
                want = no_traps(scan_raw, *region, mapping, params, 1)
                assert np.array_equal(want.mask, full_iteration(want.xs, want.ys, mapping, params)), region
                for tile_cells, workers in itertools.product([41, 3 * 47], [1, 2, 3]):
                    with monkeypatch.context() as m:
                        m.setattr(_kernels, "_TILE_CELLS", tile_cells)
                        got = scan_raw(*region, mapping, params, workers)
                    assert np.array_equal(got.mask, want.mask), (threshold, region, tile_cells, workers)


def full_iteration(xs, ys, mapping, params):
    """Survival grid of a cos or sin scan by every step on every cell: no drop, trap or tile."""
    a, b = np.meshgrid(xs, ys, indexing="ij")
    with np.errstate(over="ignore", invalid="ignore"):
        below = a * a + b * b < params.threshold_sq
        for _ in range(params.iterations):
            p, q = _kernels._factors(mapping, a)
            a, b = p * np.cosh(b), q * np.sinh(b)
            if params.early_exit:
                below &= a * a + b * b < params.threshold_sq
        return below if params.early_exit else a * a + b * b < params.threshold_sq


class TestStepFactors:
    @pytest.mark.parametrize("mapping, exact", [(COS, np.cos), (SIN, np.sin)], ids=["cos", "sin"])
    def test_factors_give_the_map_of_a_complex_argument(self, mapping, exact):
        # A sign flip of either factor gives a map with the same |z_n| on
        # every orbit, -conj(cos z) say, which no mask or output byte shows.
        x, y = np.meshgrid(np.linspace(-3.0, 3.0, 25), np.linspace(-2.0, 2.0, 17))
        p, q = _kernels._factors(mapping, x)
        z = exact(x + 1j * y)
        np.testing.assert_allclose(p * np.cosh(y), z.real, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(q * np.sinh(y), z.imag, rtol=1e-13, atol=1e-15)


def period3_parameters(lam):
    """The three c, one per period-3 component, with a 3-cycle of multiplier lam.

    The roots in c of 64c^3 + 128c^2 + (64 - 8 lam)c + (lam^2 - 16 lam + 64),
    the multipliers' quadratic solved for c, polished by two Newton steps.
    """
    coeffs = [64, 128, 64 - 8 * lam, lam * lam - 16 * lam + 64]
    roots = np.roots(coeffs)
    for _ in range(2):
        roots = roots - np.polyval(coeffs, roots) / np.polyval(np.polyder(coeffs), roots)
    return [complex(c) for c in roots]


def interior_edge(multiplier_radius, component, count=10):
    """Parameters whose cycle multiplier has the given modulus, around a component."""
    points = []
    for k in range(count):
        lam = multiplier_radius * cmath.exp(2j * math.pi * (k + 0.5) / count)
        if component == "cardioid":
            points.append(lam / 2 - lam * lam / 4)
        elif component == "bulb":
            points.append(lam / 4 - 1)
        else:
            points.extend(period3_parameters(lam))
    return points


# The interior test of each component's period.
PERIOD_TESTS = {"cardioid": _kernels._in_period1_or_2, "bulb": _kernels._in_period1_or_2, "period3": _kernels._in_period3}


def period3_multipliers(c):
    """8 z f(z) f(f(z)) at each root z of (f^3(z) - z) / (f(z) - z), f(z) = z^2 + c, by np.roots."""
    P = np.polynomial.polynomial
    f = np.array([c, 0, 1], dtype=complex)  # ascending coefficients
    f2 = P.polyadd(P.polymul(f, f), [c])  # f(f(z)) = f(z)^2 + c
    f3 = P.polyadd(P.polymul(f2, f2), [c])
    quotient, remainder = P.polydiv(P.polysub(f3, [0, 1]), P.polysub(f, [0, 1]))
    assert np.abs(remainder).max() < 1e-9
    lams = []
    for z in P.polyroots(quotient):
        fz = z * z + c
        lams.append(8 * z * fz * (fz * fz + c))
    return lams


class TestMandelbrotInterior:
    @pytest.mark.parametrize("early_exit", [False, True], ids=["final", "early"])
    @pytest.mark.parametrize("component", ["cardioid", "bulb", "period3"])
    @pytest.mark.parametrize(
        "radius, iterations",
        [
            (1 - 1e-12, 10**4),
            (1 + 1e-12, 10**4),
            (1 - 1e-6, 10**4),
            (1 + 1e-6, 10**4),
            (1 - 1e-3 - 1e-9, 3 * 10**4),
            # the interior test's margin itself, where rounding decides the pre-pass
            (1 - 1e-3, 3 * 10**4),
            (1 - 1e-3 + 1e-9, 10**4),
            (1 + 1e-3, 10**4),
            (0.9, 10**4),
        ],
    )
    def test_cells_near_both_boundaries_match_the_scalar_oracle(self, component, radius, iterations, early_exit):
        cells = interior_edge(radius, component)
        xs = np.array([c.real for c in cells])
        ys = np.array([c.imag for c in cells])
        grid = _kernels.survive(xs, ys, MANDELBROT, 10.0, early_exit, iterations)
        got = np.diagonal(grid).tolist()
        want = [oracles.quadratic_survives(0j, c, iterations, 10.0, early_exit) for c in cells]
        assert got == want

    @pytest.mark.parametrize("component", PERIOD_TESTS)
    def test_margin_on_the_multiplier(self, component):
        inside = interior_edge(1 - 1e-3 - 1e-9, component)
        outside = interior_edge(1 - 1e-3 + 1e-9, component)
        test = PERIOD_TESTS[component]
        assert test(np.real(inside), np.imag(inside)).all()
        assert not test(np.real(outside), np.imag(outside)).any()
        # and the pre-pass, which tests each cell in the boxes that hold it
        for cells, want in ((inside, True), (outside, False)):
            for c in cells:
                marked = np.zeros((1, 1), dtype=bool)
                _kernels._mark_mandelbrot_interior(np.array([c.real]), np.array([c.imag]), marked)
                assert marked.tolist() == [[want]], c

    def test_period3_multipliers_match_the_cycles_of_the_map(self):
        rng = np.random.default_rng(3)
        cs = [complex(*rng.uniform(-2.0, 1.0, 2)) for _ in range(150)]
        cs += [c + complex(*rng.normal(0.0, 0.05, 2)) for c in (-0.1226 + 0.7449j, -0.1226 - 0.7449j, -1.7549)
               for _ in range(50)]
        checked = 0
        for c in cs:
            cycles = period3_multipliers(c)
            w = cmath.sqrt(-4 * c - 7)
            closed = [4 * ((c + 2) - c * w), 4 * ((c + 2) + c * w)]
            # each of the six period-3 points has one of the two multipliers
            for lam in cycles:
                assert min(abs(lam - want) for want in closed) < 1e-6 * max(1.0, abs(lam)), (c, lam, closed)
            least = min(abs(lam) for lam in closed)
            if abs(least - _kernels._MULTIPLIER_BOUND) > 1e-9:
                checked += 1
                got = _kernels._in_period3(np.array([c.real]), np.array([c.imag]))[0]
                assert got == (least < _kernels._MULTIPLIER_BOUND), c
        assert checked >= 290

    def test_each_box_holds_its_components_whole(self):
        # every point of a component's edge, |multiplier| = 1, lies in a box of its period's test
        for component, test in PERIOD_TESTS.items():
            for c in interior_edge(1.0, component, count=4096):
                boxes = [box for t, box in _kernels._INTERIOR_COMPONENTS if t is test]
                assert any(left <= c.real <= right and low <= c.imag <= high for left, right, low, high in boxes), c
        # one period-3 component to each of its three boxes
        boxes = [box for t, box in _kernels._INTERIOR_COMPONENTS if t is _kernels._in_period3]
        for c in period3_parameters(1.0):
            assert sum(left <= c.real <= right and low <= c.imag <= high for left, right, low, high in boxes) == 1

    def test_non_finite_and_huge_parameters_are_outside(self):
        corners = np.array([math.inf, -math.inf, math.nan, 1e308, -1e308, 0.0])
        cr, ci = (c.ravel() for c in np.meshgrid(corners, corners, indexing="ij"))
        with np.errstate(over="ignore", invalid="ignore"):
            assert not _kernels._in_period3(cr, ci).any()
            # c = 0, the centre of the main cardioid, is the one inside
            assert _kernels._in_period1_or_2(cr, ci).tolist() == ((cr == 0.0) & (ci == 0.0)).tolist()

    # 1- and 3-row tiles (grids 53, 47 and 41): the pre-pass marks each
    # tile's interior cells by their place in the whole grid, and the
    # orbits left live join sets of tiles
    @pytest.mark.parametrize("tile_cells", [53, 3 * 53], ids=["rows", "three-rows"])
    @pytest.mark.parametrize("early_exit", [False, True], ids=["final", "early"])
    @pytest.mark.parametrize("iterations", [9, 50, 300])
    def test_tiles_cut_by_the_kernel_equal_the_untrapped_kernel(self, monkeypatch, no_traps, iterations, early_exit,
                                                                 tile_cells):
        regions = TestTrapsKeepTheFullIteration.REGIONS[2:]
        params = EscapeParams(iterations, 10.0, early_exit)
        full = [no_traps(scan_raw, *region, MANDELBROT, params).mask for region in regions]
        monkeypatch.setattr(_kernels, "_TILE_CELLS", tile_cells)
        for region, want in zip(regions, full):
            assert np.array_equal(scan_raw(*region, MANDELBROT, params).mask, want), region


DBL_MAX = sys.float_info.max


def float_step(a, b, cr, ci):
    """One Mandelbrot step as the kernel rounds it, on float64 scalars."""
    aa, bb = a * a, b * b
    return (aa - bb) + cr, (2.0 * a) * b + ci


def squared(a, b):
    return a * a + b * b


def on_the_ray(drop_sq, angle, spread=1.0):
    """The float z at `angle` and about `spread` * sqrt(drop_sq) from 0 with aa + bb >= drop_sq."""
    radius = math.sqrt(min(drop_sq, DBL_MAX)) * spread
    a, b = np.float64(radius * math.cos(angle)), np.float64(radius * math.sin(angle))
    with np.errstate(over="ignore"):
        while squared(a, b) < drop_sq:  # onto the drop radius as the kernel rounds |z|^2
            a, b = a * (1 + 2.0**-52), b * (1 + 2.0**-52)
    return a, b


def against(cr, ci):
    """An angle of z at which z^2 points against c, where a step grows |z| least."""
    return (math.atan2(ci, cr) + math.pi) / 2


def check_growth(drop_sq, cr, ci, a, b):
    """The escape lemma for one state: the step grows aa + bb by more than 1.5 or goes non-finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isfinite(drop_sq) and squared(a, b) >= drop_sq
        a2, b2 = float_step(a, b, np.float64(cr), np.float64(ci))
        if math.isfinite(a2) and math.isfinite(b2):
            assert squared(a2, b2) >= max(drop_sq, 1.5 * squared(a, b)), (cr, ci, a, b)


@st.composite
def escaped_states(draw):
    """(drop_sq, cr, ci, a, b): c a cell of a drawn grid, z = a + ib with aa + bb >= drop_sq.

    The axes reach |c| from 0 to near the double range; z lies on the drop
    radius or beyond it, up to past the overflow of aa + bb.
    """
    reach = draw(st.sampled_from([1.0, 2.5, 1e3, 1e20, 1e150, 1e300, DBL_MAX / 2]))
    axis = st.lists(st.floats(-reach, reach), min_size=1, max_size=4).map(np.array)
    xs, ys = draw(axis), draw(axis)
    drop_sq = max(draw(st.floats(1e-3, 1e300)), _kernels._escape_radius_sq(xs, ys))
    assume(math.isfinite(drop_sq))  # inf: see test_an_overflowing_square_escapes_within_two_steps
    if draw(st.booleans()):  # the cell of largest |c|
        cr, ci = xs[np.abs(xs).argmax()], ys[np.abs(ys).argmax()]
    else:
        cr, ci = draw(st.sampled_from(list(xs))), draw(st.sampled_from(list(ys)))
    angle = against(cr, ci) + draw(st.sampled_from([0.0, math.pi])) + draw(st.floats(-0.3, 0.3))
    angle = draw(st.sampled_from([angle, draw(st.floats(0.0, 2 * math.pi))]))
    spread = draw(st.sampled_from([1.0, draw(st.floats(1.0, 10.0)), 10 ** draw(st.floats(0.0, 160.0))]))
    a, b = on_the_ray(drop_sq, angle, spread)
    assume(math.isfinite(a) and math.isfinite(b))
    return drop_sq, cr, ci, a, b


class TestEscapeRadius:
    """Past the scan's escape radius a Mandelbrot step grows aa + bb by more than 1.5 or overflows.

    So an orbit with aa + bb >= drop_sq = max(threshold, radius^2) stays
    there, or goes non-finite, and fails every later test: the proof is
    in the `_kernels` docstring.
    """

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(state=escaped_states())
    def test_a_step_past_the_radius_grows_the_squared_magnitude(self, state):
        check_growth(*state)

    # grids from the workload's plane to near the double range, each at its largest |c|
    @pytest.mark.parametrize("reach", [0.0, 0.5, 2.0, 2.5, 1e3, 1e20, 1e100, 1e150, 1e300])
    @pytest.mark.parametrize("threshold", [1.0, 10.0, 1e6])
    def test_the_least_growth_lies_on_the_radius(self, reach, threshold):
        xs, ys = np.array([-reach, reach / 2]), np.array([0.0, reach])
        drop_sq = max(threshold, _kernels._escape_radius_sq(xs, ys))
        for cr, ci in [(-reach, reach), (reach / 2, 0.0), (-reach, 0.0), (0.0, reach)]:
            for turn in np.linspace(-0.05, 0.05, 41):
                check_growth(drop_sq, cr, ci, *on_the_ray(drop_sq, against(cr, ci) + turn))

    def test_no_per_step_test_at_the_default_threshold(self):
        # every scan inside the plane [-2.5, 2.5]^2 has radius^2 < 6.8, so at
        # threshold 10 an orbit that fails the threshold fails every later test
        assert _kernels._escape_radius_sq(np.array([-2.5, 2.5]), np.array([-2.5, 2.5])) < 6.8
        assert EscapeParams().threshold_sq > 6.8

    @pytest.mark.parametrize(
        "xs, ys",
        [([math.inf], [0.0]), ([0.0], [-math.inf]), ([math.nan, 1.0], [0.0]), ([DBL_MAX], [DBL_MAX]), ([1.0], [DBL_MAX])],
    )
    def test_a_bound_past_the_double_range_gives_inf(self, xs, ys):
        assert _kernels._escape_radius_sq(np.array(xs), np.array(ys)) == math.inf

    @pytest.mark.parametrize("cr", [0.0, -2.0, 1e300, -DBL_MAX, math.inf, math.nan])
    @pytest.mark.parametrize(
        "a, b", [(math.inf, 0.0), (0.0, -math.inf), (math.nan, 1.0), (1.0, math.nan), (math.inf, math.inf), (-math.inf, 2.0)]
    )
    def test_a_non_finite_iterate_is_absorbing(self, a, b, cr):
        # and fails `<` against any drop_sq, inf included
        with np.errstate(over="ignore", invalid="ignore"):
            a, b = np.float64(a), np.float64(b)
            for _ in range(3):
                assert not squared(a, b) < math.inf
                a, b = float_step(a, b, np.float64(cr), np.float64(0.5))
                assert not math.isfinite(a)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        angle=st.floats(0.0, 2 * math.pi),
        spread=st.floats(1.0, 2.0),
        c=st.complex_numbers(max_magnitude=DBL_MAX / 4),
    )
    def test_an_overflowing_square_escapes_within_two_steps(self, angle, spread, c):
        # where the bound on |c| is not finite, drop_sq is inf and the
        # drop takes a finite z with aa + bb = inf: with |c| <= DBL_MAX/4
        # its next iterate has aa + bb = inf and the one after is non-finite
        with np.errstate(over="ignore", invalid="ignore"):
            a, b = on_the_ray(math.inf, angle, spread)
            assume(math.isfinite(a) and math.isfinite(b))
            assert squared(a, b) == math.inf
            a2, b2 = float_step(a, b, np.float64(c.real), np.float64(c.imag))
            assert squared(a2, b2) == math.inf or not (math.isfinite(a2) and math.isfinite(b2))
            a3, _ = float_step(a2, b2, np.float64(c.real), np.float64(c.imag))
            assert not math.isfinite(a3)

    @pytest.mark.parametrize("c", [complex(DBL_MAX / 3, 0.0), complex(0.0, -DBL_MAX / 4), complex(DBL_MAX / 5, DBL_MAX / 5)])
    def test_a_parameter_past_a_quarter_of_the_range_is_non_finite_from_z2(self, c):
        # so only z_1 = c can be a finite iterate with aa + bb = inf, and no compaction tests z_1
        with np.errstate(over="ignore", invalid="ignore"):
            a, _ = float_step(np.float64(c.real), np.float64(c.imag), np.float64(c.real), np.float64(c.imag))
            assert not math.isfinite(a)


# Imaginary parts at the overflow drop, one double either side, where
# cosh is still finite, and past its overflow; real parts where sin is 0,
# small and large.  A start past the overflow meets no overflow test: its
# first step from the axes is non-finite, at x = 0 through 0 * inf = nan.
OVERFLOW_CELLS = [
    complex(x, s * y)
    for y in (_kernels.OVERFLOW_IM, math.nextafter(711.0, 0), math.nextafter(711.0, 800), 710.4, 710.5, 800.0)
    for s in (1, -1)
    for x in (0.0, 1e-3, 0.5, -2.0, 3.0)
]


class TestOverflowDrop:
    def test_drop_lies_past_the_overflow_of_cosh_and_sinh(self):
        # cosh and sinh overflow once |y| > ln(2 DBL_MAX)
        assert (iv.log(2 * iv.mpf(sys.float_info.max))).b < _kernels.OVERFLOW_IM
        with np.errstate(over="ignore"):
            assert np.isinf(np.cosh(_kernels.OVERFLOW_IM)) and np.isinf(np.sinh(-_kernels.OVERFLOW_IM))
            assert np.isfinite(np.cosh(710.4))

    @pytest.mark.parametrize("early_exit", [False, True], ids=["final", "early"])
    @pytest.mark.parametrize("threshold", [10.0, 1e300])
    @pytest.mark.parametrize("iterations", [0, 1, 2, 3, 50])
    @pytest.mark.parametrize("name", ["cos", "sin"])
    def test_cells_at_the_drop_match_the_orbit_oracle(self, name, iterations, threshold, early_exit):
        mapping = {"cos": COS, "sin": SIN}[name]
        got = kernel_cells(OVERFLOW_CELLS, mapping, iterations, threshold, early_exit)
        want = [oracles.orbit_survives(z, name, iterations, threshold, early_exit) for z in OVERFLOW_CELLS]
        assert got == want

    def test_an_orbit_below_the_drop_can_still_survive(self):
        # cos(710.4i) = cosh 710.4 is finite and real, and its orbit
        # stays on the real axis; one step further out it overflows
        got = kernel_cells([710.4j, 711j], COS, 50, 10.0, False)
        assert got == [True, False]


class TestTrapsFire:
    @pytest.mark.parametrize("name, threshold, per_cell", [("cos", 10.0, 4.5), ("sin", 10.0, 6.5), ("cos", 1.5, 6.5)])
    def test_scan_makes_few_libm_calls_on_small_arguments(self, monkeypatch, name, threshold, per_cell):
        # Without the traps about 72 % of cells x iterations reach np.cos.
        # Without the first step from the axes and the overflow drop, a
        # cos scan made 8.5 cos+sin calls per cell, some on real parts
        # near 1e300 where argument reduction is slow.  At threshold 1.5
        # the disk is the cos trap; with no trap there it made 70.
        calls, large = [], []
        for function in ("cos", "sin"):

            def counting(x, *args, _libm=getattr(np, function), **kwargs):
                calls.append(np.size(x))
                large.append(np.count_nonzero(np.abs(x) > 1e10))
                return _libm(x, *args, **kwargs)

            monkeypatch.setattr(_kernels.np, function, counting)
        mapping = {"cos": COS, "sin": SIN}[name]
        scan_raw(-2.5, -2.5, 2.5, 2.5, 64, mapping, EscapeParams(threshold_sq=threshold), workers=1)
        assert sum(calls) <= per_cell * 64 * 64
        assert sum(large) == 0
