"""Escape-time grid kernel: vectorized numpy over an active set of orbits.

Every cell follows the same per-component update formulas and the same
membership rule: the squared magnitude of the final iterate must be
below the threshold, and a non-finite iterate counts as escaped.  With
early exit every iterate z_0..z_N must stay below the threshold.

The grid is flattened and the kernel computes only the orbits that can
still survive, carrying their cell indices along.  With early exit an
orbit is dropped once it reaches the threshold, which already fails it.
The orbits that are kept run the same ufuncs on the same values as on
the full grid, so a cell's outcome does not depend on which other cells
share its tile, and the output bytes do not depend on how rows are
split into tiles.

A cos or sin step costs libm calls, so those orbits are compacted on
every step.  A Mandelbrot step is a few multiplications and additions,
so there the fixed cost of the array calls dominates, and the live
orbits are compacted only every COMPACTION_STRIDE = 8 steps; in between
the dropped orbits are still computed and their results ignored.

A Mandelbrot compaction has one rule in every mode: it keeps the orbits
with S = aa + bb < drop_sq, where aa = a*a and bb = b*b are the squares
the step computes anyway, and drop_sq = max(threshold, r^2).  The escape
radius r is taken once per tile from C, a bound on |c| over its cells,
as the root of r^2 = g r + C with growth factor g = ESCAPE_GROWTH =
1.25; C and r^2 each carry a relative slack of 2^-40.  Past r every
float step multiplies S by more than g^2 (1 - 12u) > 1.5, u = 2^-53 (the
escape lemma, |z| > max(2, |c|) makes the orbit escape, with rounding
charged):

- S <= (1 + u)^2 |z|^2, so S >= r^2 gives |z|^2 >= r^2 / (1 + u)^2.
  The slack on r^2 covers that factor and the few ulps lost in computing
  r; the slack on C covers its own rounding and a relative 4u more.  So
  |z|^2 - (1 + 4u)|c| >= g|z| for every cell's c.
- The step forms (aa - bb) + cr and (2.0 * a) * b + ci: z^2 + c with an
  error below 3u|z|^2 before the last rounding of each component, a
  relative u.  So |z'| >= (1 - u)((1 - 3u)|z|^2 - |c|) >=
  (1 - u)(1 - 3u)(|z|^2 - (1 + 4u)|c|) >= (1 - u)(1 - 3u) g|z|.
- S' >= (1 - u)^2 |z'|^2 >= g^2 (1 - 12u) S.
- An underflow adds an absolute error below 2^-1074, inside the slack
  as |z|^2 > 1.5.  An overflow makes a component of z' non-finite, or
  S' = inf.

So an orbit with S >= drop_sq keeps S >= drop_sq >= threshold at every
later iterate, or goes non-finite.  Non-finite iterates are absorbing:
a nan or infinite aa or bb makes (aa - bb) + cr non-finite whatever c
is, and a non-finite S fails `<`.  Either way the orbit fails the final
test and every early-exit test from then on, so dropping it changes no
outcome.  Where C or r^2 is not finite (an axis holds an infinity or a
nan, or |c| comes near DBL_MAX), drop_sq is inf and the rule drops the
iterates with S = inf or nan.  A finite z with S = inf has |z|^2 >
DBL_MAX / (1 + u)^2: if |c| <= DBL_MAX / 4, its next iterate has
S = inf and the one after is non-finite; if |c| > DBL_MAX / 4, already
z_2 is non-finite, and compactions test z_8 onward.

With early exit a boolean mask carries the threshold test between
compactions, sticky, `live &= S < threshold`, but only where threshold
< drop_sq: below the radius an orbit can come back under the threshold
after it has failed (below threshold 4, say), and a nan fails `<`.
Where threshold = drop_sq an iterate that fails the threshold fails
every later one, so the final test decides early exit too; at the
default threshold 10 every tile of the plane [-2.5, 2.5]^2 has
r^2 < 6.8, so its early-exit steps make 7 array calls rather than 10.
The final test is `live & (S_N < threshold)`.  Each cell's iterates are
the ones the full grid computes, up to the sign of a zero component (see
below), and every test sees the same magnitudes as when each step
compacted, so no outcome can change.  The step reuses aa and bb, as
(aa - bb) + cr, and keeps the imaginary part as (2.0 * a) * b + ci:
a*b + a*b differs from that in the last bit when the product is
subnormal.

A Mandelbrot orbit starts at z_1 = c, not at z_0 = 0, and runs N - 1
steps.  z_0 = 0 passes every test, as the threshold is positive, so only
z_1..z_N are tested, and with N = 0 every cell survives.  The first step
from 0 could only differ from c in the sign of a zero component, which no
magnitude test sees.

Without early exit a cos or sin orbit is dropped as escaped once
|Im z| >= 711, before its cos and sin are evaluated.  cosh and sinh
overflow past ln(2 DBL_MAX) ~ 710.476, and any product with an infinity
is infinite or nan, so both components of the next iterate are
non-finite whatever the real part is, and it fails every later test.
This keeps libm off the huge real parts of escaping orbits, whose
argument reduction costs about five times a small argument's.  A nan or
infinite imaginary part fails the test too; a non-finite real part with
|Im z| < 711 steps to a nan imaginary part and is dropped one step
later, and the traps and the final test are false on non-finite values.
With early exit the threshold test is the only drop test: an orbit it
keeps at |Im z| >= 711 steps to a non-finite iterate, which it or the
final test rejects.

The kernel takes the map objects themselves: TrigKind.COSINE,
TrigKind.SINE or MANDELBROT.  cos z and sin z, z = x + iy, are
p(x) cosh y + i q(x) sinh y, with (p, q) = (cos x, -sin x) for cos and
(sin x, cos x) for sin, and one helper gives (p, q) for every step.

Every orbit starts at z_1, formed from the axes, and runs N - 1 steps.
For cos and sin z_1 takes p and q once per row, cosh and sinh once per
column, and one product of those values per cell and component, the
product the full grid computes.  z_0 is tested only by early exit, and
by the final test when N = 0; its |z_0|^2 is the outer sum of the
squared axes, which rounds twice, as a*a + b*b on the grid does.  z_0
needs no trap test and no overflow test.  Every trap is sent into
itself, so a trapped z_0 has a trapped z_1, which the first test in the
loop catches before z_2 is computed (with N = 1 it passes the final
test).  |Im z_0| >= 711 makes z_1 non-finite, at x = 0 through
0 * inf = nan, and the drop test at z_1 or the final test rejects it.
Only the Mandelbrot helper builds the grid of cells, as only it needs
c for each of them.

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

import math

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

# Mandelbrot steps between two compactions of the live orbits.
COMPACTION_STRIDE = 8

# Least factor by which a Mandelbrot step grows |z| past the escape radius,
# and the relative slack on the bound on |c| and on the squared radius.
ESCAPE_GROWTH = 1.25
_BOUND_SLACK = 1.0 + 2.0**-40


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
    shape = (len(xs), len(ys))
    alive = np.zeros(shape[0] * shape[1], dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        if mapping is MANDELBROT:
            _survive_mandelbrot(xs, ys, alive, threshold, early_exit, iterations)
            return alive.reshape(shape)
        if early_exit or not iterations:
            # |z_0|^2 with the two roundings of a*a + b*b on the grid
            keep = np.add.outer(xs * xs, ys * ys).ravel() < threshold
            if not iterations:
                return keep.reshape(shape)
        p, q = _factors(mapping, xs)
        a = np.multiply.outer(p, np.cosh(ys)).ravel()  # z_1
        b = np.multiply.outer(q, np.sinh(ys)).ravel()
        cells = np.arange(a.size)
        if early_exit and not keep.all():
            a, b, cells = a[keep], b[keep], cells[keep]
        trap = _trap(mapping, threshold)
        for _ in range(1, iterations):
            if not cells.size:
                break
            if early_exit:
                keep = a * a + b * b < threshold
            else:
                keep = np.abs(b) < OVERFLOW_IM
            if trap is not None:
                trapped = trap(a, b)
                if trapped.any():
                    alive[cells[trapped]] = True
                    keep &= ~trapped
            if not keep.all():
                a, b, cells = a[keep], b[keep], cells[keep]
            p, q = _factors(mapping, a)
            a, b = p * np.cosh(b), q * np.sinh(b)
        alive[cells] = a * a + b * b < threshold
    return alive.reshape(shape)


def _escape_radius_sq(xs, ys):
    """r^2 of the tile with axes xs, ys: past it a step multiplies aa + bb by more than 1.5.

    inf where the bound on |c| or r^2 is not finite.
    """
    bound = math.hypot(np.abs(xs).max(), np.abs(ys).max()) * _BOUND_SLACK
    # the positive root of r^2 - ESCAPE_GROWTH r - bound
    half = ESCAPE_GROWTH / 2.0
    radius = half + math.sqrt(half * half + bound)
    radius_sq = radius * radius * _BOUND_SLACK
    return radius_sq if math.isfinite(radius_sq) else math.inf


def _survive_mandelbrot(xs, ys, alive, threshold, early_exit, iterations):
    """Set `alive` for the parameters of the tile with axes xs, ys."""
    if iterations == 0:
        alive[:] = True
        return
    cr, ci = (c.ravel() for c in np.meshgrid(xs, ys, indexing="ij"))
    cells = np.arange(cr.size)
    if threshold > MANDELBROT_INTERIOR_THRESHOLD and _meets_interior_box(xs, ys):
        inside = _in_mandelbrot_interior(cr, ci)
        alive[inside] = True
        outside = ~inside
        cr, ci, cells = cr[outside], ci[outside], cells[outside]
        if not cells.size:
            return
    drop_sq = max(threshold, _escape_radius_sq(xs, ys))
    # past drop_sq an orbit fails every later test, so only a threshold
    # below it needs early exit's own test, on every step
    sticky = early_exit and threshold < drop_sq
    a, b = cr, ci  # z_1; the steps below never write into cr and ci
    live = np.ones(cells.size, dtype=bool)
    for step in range(1, iterations):
        aa, bb = a * a, b * b
        if sticky:
            live &= aa + bb < threshold
        if step % COMPACTION_STRIDE == 0:
            live &= aa + bb < drop_sq
            if not live.all():
                a, b, aa, bb, cr, ci, cells = (v[live] for v in (a, b, aa, bb, cr, ci, cells))
                if not cells.size:
                    return
                live = np.ones(cells.size, dtype=bool)
        # (aa - bb) + cr and 2.0 * a * b + ci, the same roundings with fewer temporaries
        b2 = 2.0 * a
        b2 *= b
        b2 += ci
        aa -= bb
        aa += cr
        a, b = aa, b2
    alive[cells] = live & (a * a + b * b < threshold)
