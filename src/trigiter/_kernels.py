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

One driver cuts every scan's rows into tiles of _TILE_CELLS cells.  A
tile's start forms its orbits: for cos and sin z_1 from the axes,
without the cells whose z_0 fails early exit; for Mandelbrot z_1 = c,
after its interior pre-pass (below) has marked its interior cells in the
survival mask.  The tile's orbits run steps 1 to COMPACTION_STRIDE, which
ends on a compaction in every map.  Most orbits escape or enter a trap
by then, so a tile leaves only a few live, and those of successive tiles
are joined, with their cells (and c), into one set while it holds at
most _TILE_CELLS orbits; each set then runs the remaining steps to the
last iteration, at once when it holds more than half a tile.  Whichever
steps reach the last iteration, a tile's or a set's, set the cells of
their orbits in the mask by the final test.  One set per tile would
repeat every one of those steps on a few orbits, where the fixed cost of
the array calls is the whole cost.  A set of more than one tile of
orbits grows the working memory and ran slower, and so did a set of
more than half a tile left waiting for the next tile's steps.  A scan of
at most COMPACTION_STRIDE + 1 iterations finishes inside each tile.  No
outcome depends on the tiling: a joined orbit runs the same ufuncs on
the same values, Mandelbrot compactions still fall on the steps that
are multiples of COMPACTION_STRIDE, and every tile and set uses the drop
rule of the whole call, below.  A caller may split a grid's rows between
calls, one per thread: the drop rule of each call holds for every orbit
of its rows, so no outcome changes either.  Each call then sets the
cells of its rows in the caller's grid, every n-th row of one mask, so
no thread holds a mask of its own.

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

A cos or sin step takes |Im z| once, for the overflow drop and for the
trap test, and writes the next iterate over the current one: a becomes
cosh(b) times p and b becomes sinh(b) times q, in place, where no other
array holds z.  These are the values p cosh y and q sinh y of the full
grid: a product of two doubles does not depend on the order of its
operands, and cos's q = -sin x is negated in place, which is exact.  It
drops the orbits that enter a trap by `keep ^= trapped`: every point of
a trap lies below both the threshold and 711, so an orbit in a trap
passes the drop test, and flipping its bit clears it.

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
the threshold; each trap test takes the real part and |Im z|.  Every
later iterate then stays in the trap and passes the final test and the
early-exit test; the iterates before it were tested as they ran.  The
trap tests are proofs about the float orbit the kernel computes, with
rounding inside their slack, so the outcome is the one the full
iteration gives.  Each trap is used only when the threshold
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
cycle, are marked in the survival mask before the tile is iterated,
and are not iterated, for threshold > 4: the orbit of 0 of a parameter
in the set stays within |z| <= 2.  The components are the main
cardioid, the period-2 bulb, the period-3 bulbs at -0.1226 -+ 0.7449i
and the minibrot at -1.7549, and each multiplier has a closed form:
1 - sqrt(1 - 4c) for the fixed point, 4(c + 1) for the 2-cycle, and for
the two 3-cycles the roots of

    lambda^2 - (8c + 16) lambda + 64 (c^3 + 2c^2 + c + 1) = 0,

whose discriminant is -64 c^2 (4c + 7): lambda = 4 [(c + 2) -+ c w]
with w = sqrt(-4c - 7).  Each multiplier is evaluated as written, in
numpy's complex arithmetic (sqrt and abs), and compared with
1 - 1e-3.  Each test runs only on a box that holds its components, on
the rows of the tile's real axis inside it against the columns of the
imaginary axis inside it, broadcast, so c is formed only for those
cells: [-1.25, 0.375] x [-0.65, 0.65] for periods 1 and 2,
[-0.23, -0.02] x [0.64, 0.85], its mirror image and
[-1.77, -1.74] x [-0.013, 0.013] for period 3.  A test is valid for
every c, so the boxes gate only its cost, never an outcome: a cell
outside them is iterated like any other.  The tests are about the exact
orbit, not the float one; the margin keeps the cycle attracting under
rounding, and tests compare them cell by cell with scalar iteration next
to every boundary.  Rounding in the complex arithmetic cannot change an
outcome either: a cell whose computed |lambda| lies on the other side of
1 - 1e-3 than the exact one has |lambda| within a few ulps of 1 - 1e-3,
so an attracting cycle, and it survives whether it is marked or
iterated.
"""

from __future__ import annotations

import math

import numpy as np

from .iteration import DOTTIE, MANDELBROT, TrigKind

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
# by the tile, not by the grid, and the orbits they leave live after the
# first compaction join sets of at most this many.  PointSet.row_blocks
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


def _in_dottie_rectangle(a, im):
    inside = np.abs(a) <= _RECTANGLE_RE
    inside &= im <= _RECTANGLE_IM
    return inside


def _in_dottie_disk(a, im):
    d = a - DOTTIE
    d *= d
    d += im * im
    return d < _DISK_RADIUS_SQ


def _in_sine_petal(a, im):
    x = np.abs(a)
    inside = x > 0.0
    inside &= x <= _PETAL_REACH
    inside &= im <= _PETAL_SLOPE * x
    return inside


def _in_period1_or_2(cr, ci):
    """Parameters whose fixed point or 2-cycle has |multiplier| <= _MULTIPLIER_BOUND."""
    c = cr + 1j * ci
    inside = np.abs(1.0 - np.sqrt(1.0 - 4.0 * c)) <= _MULTIPLIER_BOUND  # the main cardioid
    return inside | (np.abs(4.0 * (c + 1.0)) <= _MULTIPLIER_BOUND)  # the period-2 bulb


def _in_period3(cr, ci):
    """Parameters with a 3-cycle whose |multiplier| <= _MULTIPLIER_BOUND."""
    c = cr + 1j * ci
    cw = c * np.sqrt(-4.0 * c - 7.0)
    inside = np.abs(4.0 * (c + 2.0 - cw)) <= _MULTIPLIER_BOUND
    return inside | (np.abs(4.0 * (c + 2.0 + cw)) <= _MULTIPLIER_BOUND)


# Each Mandelbrot interior test, with a box [left, right] x [low, high]
# that holds its components whole: the test runs only on the box's cells.
_INTERIOR_COMPONENTS = (
    (_in_period1_or_2, (-1.25, 0.375, -0.65, 0.65)),  # the main cardioid and the period-2 bulb
    (_in_period3, (-0.23, -0.02, 0.64, 0.85)),  # the bulbs at -0.1226 -+ 0.7449i
    (_in_period3, (-0.23, -0.02, -0.85, -0.64)),
    (_in_period3, (-1.77, -1.74, -0.013, 0.013)),  # the minibrot at -1.7549
)


def _mark_mandelbrot_interior(xs, ys, alive):
    """Set the cells of `alive`, the grid over the axes xs, ys, inside a component of period <= 3."""
    for test, (left, right, low, high) in _INTERIOR_COMPONENTS:
        rows, cols = np.flatnonzero((xs >= left) & (xs <= right)), np.flatnonzero((ys >= low) & (ys <= high))
        if rows.size and cols.size:
            alive[np.ix_(rows, cols)] |= test(xs[rows, None], ys[cols])


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
        q = np.sin(x)
        return np.cos(x), np.negative(q, out=q)
    return np.sin(x), np.cos(x)


def survive(xs, ys, mapping, threshold, early_exit, iterations, out=None):
    """Boolean survival grid, shape (len(xs), len(ys)), [real, imag] indexed.

    The grid is `out` where one is given: a boolean array of that shape,
    False in every cell, whose columns are adjacent in memory but whose
    rows need not be, such as rows k, k + n, k + 2n ... of a scan's mask,
    which one thread fills while others fill the rows between.
    Otherwise it is a new array.
    """
    if out is None:
        out = np.zeros((len(xs), len(ys)), dtype=bool)
    step = out.strides[0]
    if out.dtype != np.bool_ or out.shape != (len(xs), len(ys)) or out.strides[1] != 1 or step < len(ys):
        raise ValueError("out must be a boolean grid of shape (len(xs), len(ys)) with adjacent columns")
    # the cells as one flat view of the bytes from out[0, 0] to out[-1, -1],
    # in which the cell at row r, column i is alive[r * step + i]
    alive = np.lib.stride_tricks.as_strided(out, (max(0, (len(xs) - 1) * step + len(ys)),), (1,))
    with np.errstate(over="ignore", invalid="ignore"):
        if mapping is MANDELBROT:
            _survive_mandelbrot(xs, ys, out, alive, threshold, early_exit, iterations)
        elif not iterations:  # the cells with z_0 below the threshold, which early exit keeps
            for _, _, cells in _trig_tiles(xs, ys, out, mapping, threshold, True):
                alive[cells] = True
        else:
            rule = (mapping, threshold, early_exit, _trap(mapping, threshold), alive, iterations)
            _run_tiles(_trig_tiles(xs, ys, out, mapping, threshold, early_exit), _trig_steps, rule)
    return out


def _row_tiles(xs, out):
    """Each tile of whole rows of the grid `out`: its real axis, its first row and its cells in survive's `alive`.

    The cells of rows lo.. are the first `cols` of each `step` numbers
    from lo * step on; where the rows are adjacent (step == cols) that is
    one range, and ravel copies nothing.  Each tile's cells are yielded
    without a reference kept here: the caller drops them once it has
    compacted them, and a tile's worth of cells held one tile longer
    made Mandelbrot scans 3 % slower.
    """
    cols, step = out.shape[1], out.strides[0]
    rows = _tile_rows(cols)
    for lo in range(0, len(xs), rows):
        tile = xs[lo : lo + rows]
        yield tile, lo, np.arange(lo * step, (lo + len(tile)) * step).reshape(len(tile), step)[:, :cols].ravel()


def _run_tiles(tiles, steps, rule):
    """Run the orbits of each tile, then the ones they leave live, through every step.

    `tiles` yields each tile's orbit arrays, its cells last, and
    `steps(*orbits, step_range, *rule)` runs orbits through a range of
    step numbers and returns the orbits it keeps; `rule` ends with the
    survival mask and the iteration count.  Each tile runs steps 1 to
    COMPACTION_STRIDE, which end on a compaction, so every orbit it
    keeps is live; those orbits join a set of at most _TILE_CELLS
    orbits, and each set runs the remaining steps.
    """
    iterations = rule[-1]
    head = range(1, min(iterations, COMPACTION_STRIDE + 1))
    tail = range(COMPACTION_STRIDE + 1, iterations)
    pending, held = [], 0  # the live orbits of the tiles not yet run to the end, and how many
    for orbits in tiles:
        orbits = steps(*orbits, head, *rule)
        if not tail or not orbits[-1].size:
            continue
        if pending and held + orbits[-1].size > _TILE_CELLS:
            steps(*_joined(pending), tail, *rule)
            pending, held = [], 0
        pending.append(orbits)
        held += orbits[-1].size
        # past half a tile the set runs at once, while its arrays are still in cache
        if 2 * held > _TILE_CELLS:
            steps(*_joined(pending), tail, *rule)
            pending, held = [], 0
    if pending:
        steps(*_joined(pending), tail, *rule)


def _joined(sets):
    """The orbit arrays of several sets, each joined in order."""
    if len(sets) == 1:
        return sets[0]
    return tuple(np.concatenate(arrays) for arrays in zip(*sets))


def _trig_tiles(xs, ys, out, mapping, threshold, early_exit):
    """Each tile's cos or sin orbits at z_1, without the cells whose z_0 fails early exit."""
    cosh, sinh, ys_sq = np.cosh(ys), np.sinh(ys), ys * ys
    for tile, _, cells in _row_tiles(xs, out):
        p, q = _factors(mapping, tile)
        a = np.multiply.outer(p, cosh).ravel()
        b = np.multiply.outer(q, sinh).ravel()
        if early_exit:
            # |z_0|^2 with the two roundings of a*a + b*b on the grid
            keep = np.add.outer(tile * tile, ys_sq).ravel() < threshold
            if not keep.all():
                a, b, cells = a[keep], b[keep], cells[keep]
        yield a, b, cells


def _trig_steps(a, b, cells, steps, mapping, threshold, early_exit, trap, alive, iterations):
    """Run the cos or sin orbits z = a + ib through `steps`, a range of step numbers.

    Returns z and the cells of the orbits kept at the last step.  When
    `steps` ends at the last iteration, also sets the cells of those
    orbits in `alive` by the final test.
    """
    for _ in steps:
        if not cells.size:
            break
        im = np.abs(b)
        if early_exit:
            keep = a * a + b * b < threshold
        else:
            keep = im < OVERFLOW_IM
        if trap is not None:
            trapped = trap(a, im)
            if trapped.any():
                alive[cells[trapped]] = True
                keep ^= trapped  # a trap lies below the threshold and 711, so keep holds it
        if not keep.all():
            a, b, cells = a[keep], b[keep], cells[keep]
        p, q = _factors(mapping, a)
        # p cosh b and q sinh b, written over z, which no other array holds
        np.cosh(b, out=a)
        a *= p
        np.sinh(b, out=b)
        b *= q
    if steps.stop == iterations:
        alive[cells] = a * a + b * b < threshold
    return a, b, cells


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


def _survive_mandelbrot(xs, ys, out, alive, threshold, early_exit, iterations):
    """Set the grid `out`, through `alive`, for the parameters of the grid with axes xs, ys."""
    if iterations == 0:
        out[...] = True
        return
    drop_sq = max(threshold, _escape_radius_sq(xs, ys))
    # past drop_sq an orbit fails every later test, so only a threshold
    # below it needs early exit's own test, on every step
    sticky = early_exit and threshold < drop_sq
    interior = threshold > MANDELBROT_INTERIOR_THRESHOLD
    rule = (threshold, drop_sq, sticky, alive, iterations)
    _run_tiles(_mandelbrot_tiles(xs, ys, out, interior), _mandelbrot_steps, rule)


def _mandelbrot_tiles(xs, ys, out, interior):
    """Each tile's orbits at z_1 = c; with `interior`, its interior cells are set in `out` instead."""
    for tile, lo, cells in _row_tiles(xs, out):
        cr, ci = (c.ravel() for c in np.meshgrid(tile, ys, indexing="ij"))
        if interior:
            inside = out[lo : lo + len(tile)]  # unset until the tile marks it
            _mark_mandelbrot_interior(tile, ys, inside)
            if inside.any():
                outside = ~inside.ravel()
                cr, ci, cells = cr[outside], ci[outside], cells[outside]
        # the steps never write into cr and ci, so they serve as z_1 too
        yield cr, ci, cr, ci, cells


def _mandelbrot_steps(a, b, cr, ci, cells, steps, threshold, drop_sq, sticky, alive, iterations):
    """Run the orbits z = a + ib through `steps`, a range of step numbers.

    Returns z, c and the cells of the orbits kept at the last
    compaction.  When `steps` ends at the last iteration, also sets the
    cells of those orbits in `alive`: live and below the threshold.
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
    if steps.stop == iterations:
        alive[cells] = live & (a * a + b * b < threshold)
    return a, b, cr, ci, cells
