"""Escape-time grid kernel: vectorized numpy over an active set of orbits.

Every cell follows the same per-component update formulas and the same
membership rule: the squared magnitude of the final iterate must be
below the threshold, and a non-finite iterate counts as escaped.  With
early exit every iterate z_0..z_N must stay below the threshold.

The grid is flattened and each step computes only the orbits that can
still survive, carrying their cell indices along.  With early exit an
orbit is dropped as soon as it reaches the threshold, which already
fails it.  Without early exit an orbit is dropped once a component is
non-finite: for all four maps a non-finite state maps to a non-finite
state, and a non-finite final iterate fails the final test, so the
dropped orbit could never have survived.  The orbits that are kept run
the same ufuncs on the same values as on the full grid, so a cell's
outcome does not depend on which other cells share its tile, and the
output bytes do not depend on how rows are split into tiles.
"""

from __future__ import annotations

import numpy as np

CODE_COS = 0
CODE_SIN = 1
CODE_JULIA_QUADRATIC = 2
CODE_MANDELBROT = 3


def survive(xs, ys, code, c_re, c_im, iterations, threshold, early_exit):
    """Boolean survival grid, shape (len(xs), len(ys)), [real, imag] indexed."""
    # The astype and .copy() calls look redundant, but dropping them
    # raised peak RSS on long runs of large scans (a different malloc
    # heap layout), so they stay.
    a, b = np.meshgrid(xs, ys, indexing="ij")
    shape = a.shape
    a = a.astype(np.float64).ravel()
    b = b.astype(np.float64).ravel()
    mandelbrot = code == CODE_MANDELBROT
    if mandelbrot:
        cr, ci = a.copy(), b.copy()
        a = np.zeros_like(a)
        b = np.zeros_like(b)
    else:
        cr, ci = c_re, c_im
    cells = np.arange(a.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(iterations):
            if early_exit:
                keep = a * a + b * b < threshold
            else:
                keep = np.isfinite(a)
                keep &= np.isfinite(b)
            if not keep.all():
                a, b, cells = a[keep], b[keep], cells[keep]
                if mandelbrot:
                    cr, ci = cr[keep], ci[keep]
                if not cells.size:
                    break
            if code == CODE_COS:
                na = np.cos(a) * np.cosh(b)
                nb = -np.sin(a) * np.sinh(b)
            elif code == CODE_SIN:
                na = np.sin(a) * np.cosh(b)
                nb = np.cos(a) * np.sinh(b)
            else:
                na = a * a - b * b + cr
                nb = 2.0 * a * b + ci
            a, b = na, nb
        alive = np.zeros(shape, dtype=bool)
        alive.flat[cells] = a * a + b * b < threshold
    return alive
