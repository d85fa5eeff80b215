"""Escape-time grid kernel: vectorized numpy over an active set of orbits.

Every cell follows the same per-component update formulas and the same
membership rule: the squared magnitude of the final iterate must be
below the threshold, and a non-finite iterate counts as escaped.  With
early exit every iterate z_0..z_N must stay below the threshold.

The grid is flattened and each step computes only the orbits that can
still survive, carrying their cell indices along.  With early exit an
orbit is dropped as soon as it reaches the threshold, which already
fails it.  Without early exit a Mandelbrot orbit is dropped once a
component is non-finite: a non-finite state maps to a non-finite state,
and a non-finite final iterate fails the final test, so the dropped
orbit could never have survived.  The orbits that are kept run the same
ufuncs on the same values as on the full grid, so a cell's outcome does
not depend on which other cells share its tile, and the output bytes do
not depend on how rows are split into tiles.

For cos and sin an orbit is dropped as escaped once |Im z| >= 711,
before its cos and sin are evaluated.  cosh and sinh overflow past
ln(2 DBL_MAX) ~ 710.476, and any product with an infinity is infinite or
nan, so both components of the next iterate are non-finite whatever the
real part is, and it fails every later test.  This keeps libm off the
huge real parts of escaping orbits, whose argument reduction costs about
five times a small argument's.  Without early exit this is the only drop
test for cos and sin: a nan or infinite imaginary part fails it too, and
the one other non-finite state it keeps, a non-finite real part with
|Im z| < 711, steps to a nan imaginary part (cos and sin of it are nan)
and is dropped one step later; the traps and the final test are false
on non-finite values, so it cannot be counted as surviving in between.
With early exit and a threshold up to 711^2 the threshold test already
drops these orbits, so the extra test is skipped.

The kernel takes the map objects themselves: TrigKind.COSINE,
TrigKind.SINE or MANDELBROT.  cos z and sin z, z = x + iy, are
p(x) cosh y + i q(x) sinh y, with (p, q) = (cos x, -sin x) for cos and
(sin x, cos x) for sin, and one helper gives (p, q) for every step.
The first step is formed from the axes: p and q once per row, cosh and
sinh once per column, and one product of those values per cell and
component, the product the full grid computes.  It replaces the grid
values before the step-0 compaction, so that one gather compacts z_1
and the grid values are never compacted.

An orbit is also dropped, and marked as surviving, once it enters a
trap: a region its map sends into itself, in which every point is below
the threshold.  Every later iterate then stays in the trap and passes
the final test and the early-exit test; the iterates before it were
tested as they ran.  The trap tests are proofs about the float orbit the
kernel computes, with rounding inside their slack, so the outcome is the
one the full iteration gives.  Each trap is used only when the threshold
exceeds the squared magnitude of every point of it:

- cos, the rectangle R = [-1.2, 1.2] x [-0.6, 0.6] around the Dottie
  number, for threshold > 1.81.  On R, Re cos z = cos x cosh y lies in
  [cos 1.2, cosh 0.6] within [0.3623, 1.1855], and |Im cos z| =
  |sin x sinh y| <= sin 1.2 sinh 0.6 < 0.5934, so cos maps R into
  itself with slacks 0.0145 and 0.0066 for rounding; every point of it
  has |z|^2 <= 1.2^2 + 0.6^2 = 1.80.  The test is two abs and two
  comparisons.
- cos, the Dottie disk B(D, 0.34), which R holds, for
  1.17 < threshold <= 1.81.  On the disk |sin w| <=
  sqrt(sin^2(D + 0.34) + sinh^2 0.34) < 0.9473, so cos maps it into
  B(D, 0.3221), leaving 0.0179 for rounding; every point of it has
  |z|^2 <= (D + 0.34)^2 < 1.1645.
- sin, the real-axis petal 0 < |x| <= 1.5, |y| <= 0.49 |x|, for
  threshold > 2.8.  For 0 < |x| < pi/2 the real part of sin z,
  sin x cosh y, keeps the sign of x and, while |y| <= |x|/2 < pi/4,
  stays within cosh(pi/4) < 1.33 of zero; the slope |Im|/|Re| =
  tanh|y| / tan|x| <= |y|/|x| does not grow.  Rounding can raise the
  slope by a relative 1e-15 per step, which 0.49 < 0.5 absorbs over
  any permitted iteration count; every point has |z|^2 <=
  1.5^2 (1 + 0.49^2) < 2.8.

For the Mandelbrot family the parameters c in the main cardioid or the
period-2 bulb, with a margin of 1e-3 on the multiplier of the attracting
cycle, are marked as surviving before the tile is iterated, for
threshold > 4: the orbit of 0 of a parameter in the set stays within
|z| <= 2.  A tile whose axes miss the box [-1.25, 0.375] x [-0.65, 0.65]
around both components skips the test.  That test is about the exact
orbit, not the float one; the margin keeps the cycle attracting under
rounding, and tests compare it cell by cell with scalar iteration next
to both boundaries.
"""

from __future__ import annotations

import numpy as np

from .iteration import DOTTIE, TrigKind


class _MandelbrotFamily:
    """Marker: iterate z -> z*z + c with c set to each point scanned, from z=0."""

    def __repr__(self) -> str:  # pragma: no cover
        return "MANDELBROT"


MANDELBROT = _MandelbrotFamily()
MAPS = (TrigKind.COSINE, TrigKind.SINE, MANDELBROT)

# Least threshold above which each trap lies wholly below it.
DOTTIE_RECTANGLE_THRESHOLD = 1.81
DOTTIE_DISK_THRESHOLD = 1.17
SINE_PETAL_THRESHOLD = 2.8
MANDELBROT_INTERIOR_THRESHOLD = 4.0

# |Im z| from which cosh and sinh overflow, so cos and sin step to a non-finite iterate.
OVERFLOW_IM = 711.0

_RECTANGLE_RE = 1.2
_RECTANGLE_IM = 0.6
_DISK_RADIUS_SQ = 0.34 * 0.34
_PETAL_REACH = 1.5
_PETAL_SLOPE = 0.49
_MULTIPLIER_BOUND = 1.0 - 1e-3


def _in_dottie_rectangle(a, b):
    inside = np.abs(a) <= _RECTANGLE_RE
    inside &= np.abs(b) <= _RECTANGLE_IM
    return inside


def _in_dottie_disk(a, b):
    d = a - DOTTIE
    d *= d
    d += b * b
    return d < _DISK_RADIUS_SQ


def _in_sine_petal(a, b):
    x = np.abs(a)
    inside = x > 0.0
    inside &= x <= _PETAL_REACH
    inside &= np.abs(b) <= _PETAL_SLOPE * x
    return inside


def _in_mandelbrot_interior(cr, ci):
    """Parameters whose attracting fixed point or 2-cycle has |multiplier| <= 1 - 1e-3."""
    # Main cardioid: the fixed point's multiplier is 1 - s with
    # s = sqrt(u), u = 1 - 4c.  |1 - s|^2 = 1 - 2 Re s + |u| and
    # Re s = sqrt((|u| + Re u) / 2), so |1 - s| <= r is
    # 2 (|u| + Re u) >= (1 + |u| - r^2)^2; the cardioid has |u| <= 4,
    # which also keeps an infinite u out.
    ur = 1.0 - 4.0 * cr
    m = np.hypot(ur, 4.0 * ci)
    inside = m <= 4.0
    inside &= 2.0 * (m + ur) >= (1.0 + m - _MULTIPLIER_BOUND**2) ** 2
    # period-2 bulb: the 2-cycle's multiplier is 4(c + 1)
    inside |= (cr + 1.0) ** 2 + ci**2 <= (_MULTIPLIER_BOUND / 4.0) ** 2
    return inside


def _meets_interior_box(xs, ys):
    """Whether the tile's axes meet [-1.25, 0.375] x [-0.65, 0.65], which holds both components."""
    xs, ys = np.asarray(xs), np.asarray(ys)
    return bool(((xs >= -1.25) & (xs <= 0.375)).any() and (np.abs(ys) <= 0.65).any())


def _trap(mapping, threshold):
    if mapping is TrigKind.COSINE and threshold > DOTTIE_RECTANGLE_THRESHOLD:
        return _in_dottie_rectangle
    if mapping is TrigKind.COSINE and threshold > DOTTIE_DISK_THRESHOLD:
        return _in_dottie_disk
    if mapping is TrigKind.SINE and threshold > SINE_PETAL_THRESHOLD:
        return _in_sine_petal
    return None


def _factors(mapping, x):
    """(p, q) with cos z or sin z = p cosh y + i q sinh y at z = x + iy."""
    if mapping is TrigKind.COSINE:
        return np.cos(x), -np.sin(x)
    return np.sin(x), np.cos(x)


def survive(xs, ys, mapping, threshold, early_exit, iterations):
    """Boolean survival grid, shape (len(xs), len(ys)), [real, imag] indexed."""
    a, b = np.meshgrid(xs, ys, indexing="ij")
    shape = a.shape
    a, b = a.ravel(), b.ravel()
    alive = np.zeros(a.size, dtype=bool)
    cells = np.arange(a.size)
    mandelbrot = mapping is MANDELBROT
    trap = _trap(mapping, threshold)
    # without early exit the cos/sin drop test is the overflow test itself
    overflow_drop = early_exit and not mandelbrot and threshold > OVERFLOW_IM**2
    with np.errstate(over="ignore", invalid="ignore"):
        if mandelbrot:
            cr, ci = a, b
            if threshold > MANDELBROT_INTERIOR_THRESHOLD and _meets_interior_box(xs, ys):
                inside = _in_mandelbrot_interior(cr, ci)
                alive[inside] = True
                outside = ~inside
                cr, ci, cells = cr[outside], ci[outside], cells[outside]
            a = np.zeros_like(cr)
            b = np.zeros_like(ci)
        for step in range(iterations):
            if early_exit:
                keep = a * a + b * b < threshold
            elif mandelbrot:
                keep = np.isfinite(a)
                keep &= np.isfinite(b)
            else:
                keep = np.abs(b) < OVERFLOW_IM
            if overflow_drop:
                keep &= np.abs(b) < OVERFLOW_IM
            if trap is not None:
                trapped = trap(a, b)
                if trapped.any():
                    alive[cells[trapped]] = True
                    keep &= ~trapped
            first = step == 0 and not mandelbrot
            if first:
                # z_1 of every cell, ravelled like z_0, so the step-0 compaction applies to it
                p, q = _factors(mapping, xs)
                a = np.multiply.outer(p, np.cosh(ys)).ravel()
                b = np.multiply.outer(q, np.sinh(ys)).ravel()
            if not keep.all():
                a, b, cells = a[keep], b[keep], cells[keep]
                if mandelbrot:
                    cr, ci = cr[keep], ci[keep]
                if not cells.size:
                    break
            if first:
                continue
            if mandelbrot:
                a, b = a * a - b * b + cr, 2.0 * a * b + ci
            else:
                p, q = _factors(mapping, a)
                a, b = p * np.cosh(b), q * np.sinh(b)
        alive[cells] = a * a + b * b < threshold
    return alive.reshape(shape)
