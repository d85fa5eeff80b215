"""Trap regions of the scan kernel against scalar oracles and the full iteration.

An orbit that enters its map's trap is marked as surviving and dropped
from the active set.  These tests check the constants each trap's proof
rests on in interval arithmetic, compare cells placed just inside and
just outside each trap with the scalar oracles, compare whole grids with
the kernel run with its traps turned off, and fail if the traps stop
firing.
"""

import cmath
import math
import sys

import numpy as np
import pytest
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
        disk = _kernels._in_dottie_disk(np.real(DISK_EDGE) + DOTTIE, np.imag(DISK_EDGE))
        assert disk.tolist() == [False, True] * 12  # outside, inside
        rectangle = _kernels._in_dottie_rectangle(np.real(RECT_EDGE), np.imag(RECT_EDGE))
        assert rectangle.tolist() == [False, True] * len(SIDES)  # outside, inside
        exact = _kernels._in_dottie_rectangle(np.real(RECT_EXACT), np.imag(RECT_EXACT))
        assert exact.tolist() == [True, True, False, False]
        nonfinite = np.array([math.nan, math.inf, -math.inf])
        assert not _kernels._in_dottie_rectangle(nonfinite, np.zeros(3)).any()
        assert not _kernels._in_dottie_rectangle(np.zeros(3), nonfinite).any()
        petal = _kernels._in_sine_petal(np.real(PETAL_CELLS), np.imag(PETAL_CELLS))
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
    REGIONS = [(-2.5, -2.5, 2.5, 2.5, 61), (0.2, -0.6, 1.4, 0.6, 40), (-2.1, -1.3, 0.7, 1.3, 53)]
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


def interior_edge(multiplier_radius, component):
    """Parameters whose cycle multiplier has the given modulus, around a component."""
    points = []
    for k in range(10):
        lam = multiplier_radius * cmath.exp(2j * math.pi * (k + 0.5) / 10)
        points.append(lam / 2 - lam * lam / 4 if component == "cardioid" else lam / 4 - 1)
    return points


class TestMandelbrotInterior:
    @pytest.mark.parametrize("early_exit", [False, True], ids=["final", "early"])
    @pytest.mark.parametrize("component", ["cardioid", "bulb"])
    @pytest.mark.parametrize(
        "radius, iterations",
        [
            (1 - 1e-12, 10**4),
            (1 + 1e-12, 10**4),
            (1 - 1e-6, 10**4),
            (1 + 1e-6, 10**4),
            (1 - 1e-3 - 1e-9, 3 * 10**4),
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

    def test_margin_on_the_multiplier(self):
        inside = interior_edge(1 - 1e-3 - 1e-9, "cardioid") + interior_edge(1 - 1e-3 - 1e-9, "bulb")
        outside = interior_edge(1 - 1e-3 + 1e-9, "cardioid") + interior_edge(1 - 1e-3 + 1e-9, "bulb")
        test = _kernels._in_mandelbrot_interior
        assert test(np.real(inside), np.imag(inside)).all()
        assert not test(np.real(outside), np.imag(outside)).any()
        # the box that gates the test holds both components whole
        ring = [cmath.exp(2j * math.pi * k / 4096) for k in range(4096)]
        edge = [lam / 2 - lam * lam / 4 for lam in ring] + [lam / 4 - 1 for lam in ring]
        for c in edge:
            assert _kernels._meets_interior_box([c.real], [c.imag]), c
        assert not _kernels._meets_interior_box([0.3751, -1.2501], [0.0])
        assert not _kernels._meets_interior_box([0.0], [0.6501, -0.6501, math.nan])
        corners = np.array([math.inf, -math.inf, math.nan, 1e308, -1e308, 0.0])
        with np.errstate(over="ignore", invalid="ignore"):
            assert not test(corners, corners[::-1]).any()


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
