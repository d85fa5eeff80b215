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
share its tile or its set of orbits, and the output bytes do not depend
on how rows are split into tiles.

A cos or sin step costs libm calls, so those orbits are compacted on
every step.  A Mandelbrot step is a few multiplications and additions,
so there the fixed cost of the array calls dominates, and the live
orbits are compacted only every COMPACTION_STRIDE = 8 steps; in between
the dropped orbits are still computed and their results ignored.

The caller hands the kernel a cos or sin grid one tile of whole rows at
a time, and a Mandelbrot grid whole.  The Mandelbrot kernel cuts the
rows into tiles of _TILE_CELLS cells itself, and each tile runs the
interior pre-pass (below) and steps 1 to COMPACTION_STRIDE, which ends
on the first compaction.  Most orbits escape by then, so a tile leaves
only a few live, and those of successive tiles are joined, with their c
and cell indices, into one set while it holds at most _TILE_CELLS
orbits; each set then runs the remaining steps to the last iteration,
at once when it holds more than half a tile.  One set per tile would
repeat every one of those steps on a few orbits, where the fixed cost of
the array calls is the whole cost.  A set of more than one tile of
orbits grows the working memory and ran slower, and so did a set of
more than half a tile left waiting for the next tile's steps.
A scan of at most COMPACTION_STRIDE + 1 iterations finishes inside
each tile.  No outcome depends on the tiling: a joined orbit runs the
same ufuncs on the same values, compactions still fall on the steps
that are multiples of COMPACTION_STRIDE, and every tile and set uses
the drop rule of the whole scan, below.

A Mandelbrot compaction has one rule in every mode: it keeps the orbits
with S = aa + bb < drop_sq, where aa = a*a and bb = b*b are the squares
the step computes anyway, and drop_sq = max(threshold, r^2).  The escape
radius r is taken once per scan from C, a bound on |c| over all its
cells, so it holds for every orbit of every tile and joined set, as the
root of r^2 = g r + C with growth factor g = ESCAPE_GROWTH =
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
default threshold 10 every scan inside the plane [-2.5, 2.5]^2 has
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

For the Mandelbrot family the parameters c in a hyperbolic component of
period <= 3, with a margin of 1e-3 on the multiplier of the attracting
cycle, are marked as surviving before the tile is iterated, for
threshold > 4: the orbit of 0 of a parameter in the set stays within
|z| <= 2.  The components are the main cardioid, the period-2 bulb, the
period-3 bulbs at -0.1226 -+ 0.7449i and the minibrot at -1.7549, and
each multiplier has a closed form: 1 - sqrt(1 - 4c) for the fixed point,
4(c + 1) for the 2-cycle, and for the two 3-cycles the roots of

    lambda^2 - (8c + 16) lambda + 64 (c^3 + 2c^2 + c + 1) = 0,

whose discriminant is -64 c^2 (4c + 7): lambda = 4 [(c + 2) -+ c w]
with w = sqrt(-4c - 7).  Each test runs only on the cells in a box that
holds its components, the rows and columns of the tile's axes inside
it: [-1.25, 0.375] x [-0.65, 0.65] for periods 1 and 2,
[-0.23, -0.02] x [0.64, 0.85], its mirror image and
[-1.77, -1.74] x [-0.013, 0.013] for period 3.  A test is valid for
every c, so the boxes gate only its cost, never an outcome: a cell
outside them is iterated like any other.  The tests are
about the exact orbit, not the float one; the margin keeps the cycle
attracting under rounding, and tests compare them cell by cell with
scalar iteration next to every boundary.
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

# Cells per tile of whole rows.  Tiles bound the kernel's working memory
# by the tile, not by the grid.  scan_raw hands each cos or sin tile to a
# thread of its pool, which takes the next tile when it finishes one, so
# a tile whose orbits escape early does not leave its thread idle.  The
# Mandelbrot kernel cuts a scan's rows into tiles itself, and a set of
# live orbits it joins holds at most this many.  PointSet.row_blocks
# cuts output blocks of the same size, which bounds the text alive at
# once.
_TILE_CELLS = 1 << 15

# Least factor by which a Mandelbrot step grows |z| past the escape radius,
# and the relative slack on the bound on |c| and on the squared radius.
ESCAPE_GROWTH = 1.25
_BOUND_SLACK = 1.0 + 2.0**-40


def _tile_rows(cols: int) -> int:
    """Whole rows of `cols` cells in one tile: at least one."""
    return max(1, _TILE_CELLS // max(1, cols))


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


def _in_period1_or_2(cr, ci):
    """Parameters whose fixed point or 2-cycle has |multiplier| <= _MULTIPLIER_BOUND."""
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


def _in_period3(cr, ci):
    """Parameters with a 3-cycle whose |multiplier| <= _MULTIPLIER_BOUND."""
    # The two 3-cycles' multipliers are 4 [(c + 2) -+ c w] with w = sqrt(u),
    # u = -4c - 7: Re w = sqrt((|u| + Re u) / 2) and Im w has the sign of
    # Im u and the size sqrt((|u| - Re u) / 2).  |4 v| <= r is |v|^2 <= (r / 4)^2.
    ur, ui = -4.0 * cr - 7.0, -4.0 * ci
    m = np.hypot(ur, ui)
    wr = np.sqrt((m + ur) / 2.0)
    wi = np.copysign(np.sqrt((m - ur) / 2.0), ui)
    pr, pi = cr * wr - ci * wi, cr * wi + ci * wr  # c w
    bound_sq = (_MULTIPLIER_BOUND / 4.0) ** 2
    inside = (cr + 2.0 + pr) ** 2 + (ci + pi) ** 2 <= bound_sq
    inside |= (cr + 2.0 - pr) ** 2 + (ci - pi) ** 2 <= bound_sq
    return inside


# Each Mandelbrot interior test, with a box [left, right] x [low, high]
# that holds its components whole: the test runs only on the box's cells.
_INTERIOR_COMPONENTS = (
    (_in_period1_or_2, (-1.25, 0.375, -0.65, 0.65)),  # the main cardioid and the period-2 bulb
    (_in_period3, (-0.23, -0.02, 0.64, 0.85)),  # the bulbs at -0.1226 -+ 0.7449i
    (_in_period3, (-0.23, -0.02, -0.85, -0.64)),
    (_in_period3, (-1.77, -1.74, -0.013, 0.013)),  # the minibrot at -1.7549
)


def _in_mandelbrot_interior(xs, ys, cr, ci):
    """Of the cells cr, ci of the grid over the axes xs, ys, those inside a component of period <= 3, flat."""
    shape = (len(xs), len(ys))
    cr, ci = cr.reshape(shape), ci.reshape(shape)
    inside = np.zeros(shape, dtype=bool)
    for test, (left, right, low, high) in _INTERIOR_COMPONENTS:
        box = np.ix_(np.flatnonzero((xs >= left) & (xs <= right)), np.flatnonzero((ys >= low) & (ys <= high)))
        if box[0].size and box[1].size:
            inside[box] |= test(cr[box], ci[box])
    return inside.ravel()


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
    """r^2 of the grid with axes xs, ys: past it a step multiplies aa + bb by more than 1.5.

    inf where the bound on |c| or r^2 is not finite.
    """
    bound = math.hypot(np.abs(xs).max(), np.abs(ys).max()) * _BOUND_SLACK
    # the positive root of r^2 - ESCAPE_GROWTH r - bound
    half = ESCAPE_GROWTH / 2.0
    radius = half + math.sqrt(half * half + bound)
    radius_sq = radius * radius * _BOUND_SLACK
    return radius_sq if math.isfinite(radius_sq) else math.inf


def _survive_mandelbrot(xs, ys, alive, threshold, early_exit, iterations):
    """Set `alive` for the parameters of the grid with axes xs, ys.

    Each tile of whole rows runs the interior pre-pass and the steps up
    to the first compaction; the orbits it leaves live join a set of at
    most _TILE_CELLS orbits, and each set runs the remaining steps.
    """
    if iterations == 0:
        alive[:] = True
        return
    cols = len(ys)
    drop_sq = max(threshold, _escape_radius_sq(xs, ys))
    # past drop_sq an orbit fails every later test, so only a threshold
    # below it needs early exit's own test, on every step
    sticky = early_exit and threshold < drop_sq
    rule = (threshold, drop_sq, sticky)
    head = range(1, min(iterations, COMPACTION_STRIDE + 1))
    tail = range(COMPACTION_STRIDE + 1, iterations)

    def run(orbits, steps):
        """The orbits after `steps`; sets the cells of those that reach the last iteration."""
        *orbits, live = _mandelbrot_steps(*orbits, steps, *rule)
        if steps.stop == iterations:
            a, b, cr, ci, cells = orbits
            alive[cells] = live & (a * a + b * b < threshold)
        return orbits  # a head followed by a tail ends on a compaction, so each orbit it keeps is live

    pending = []  # the live orbits of the tiles not yet run to the end

    def run_pending():
        run(_joined(pending), tail)
        pending.clear()

    rows = _tile_rows(cols)
    for lo in range(0, len(xs), rows):
        tile = xs[lo : lo + rows]
        cr, ci = (c.ravel() for c in np.meshgrid(tile, ys, indexing="ij"))
        cells = np.arange(lo * cols, lo * cols + cr.size)
        if threshold > MANDELBROT_INTERIOR_THRESHOLD:
            inside = _in_mandelbrot_interior(tile, ys, cr, ci)
            if inside.any():
                alive[cells[inside]] = True
                outside = ~inside
                cr, ci, cells = cr[outside], ci[outside], cells[outside]
                if not cells.size:
                    continue
        orbits = run((cr, ci, cr, ci, cells), head)  # z_1 = c; the steps never write into cr and ci
        if not tail or not orbits[-1].size:
            continue
        if pending and sum(o[-1].size for o in pending) + orbits[-1].size > _TILE_CELLS:
            run_pending()
        pending.append(orbits)
        # past half a tile the set runs at once, while its arrays are still in cache
        if 2 * sum(o[-1].size for o in pending) > _TILE_CELLS:
            run_pending()
    if pending:
        run_pending()


def _joined(sets):
    """The orbit arrays of several sets, each joined in order."""
    if len(sets) == 1:
        return sets[0]
    return tuple(np.concatenate(arrays) for arrays in zip(*sets))


def _mandelbrot_steps(a, b, cr, ci, cells, steps, threshold, drop_sq, sticky):
    """Run the orbits z = a + ib through `steps`, a range of step numbers.

    Returns z, c and the cells of the orbits kept at the last
    compaction, and which of them are still live.
    """
    live = np.ones(cells.size, dtype=bool)
    for step in steps:
        aa, bb = a * a, b * b
        if sticky:
            live &= aa + bb < threshold
        if step % COMPACTION_STRIDE == 0:
            live &= aa + bb < drop_sq
            if not live.all():
                a, b, aa, bb, cr, ci, cells = (v[live] for v in (a, b, aa, bb, cr, ci, cells))
                live = np.ones(cells.size, dtype=bool)
                if not cells.size:
                    break
        # (aa - bb) + cr and 2.0 * a * b + ci, the same roundings with fewer temporaries
        b2 = 2.0 * a
        b2 *= b
        b2 += ci
        aa -= bb
        aa += cr
        a, b = aa, b2
    return a, b, cr, ci, cells, live
