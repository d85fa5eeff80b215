"""Escape-time grid kernel: vectorized numpy over a (real, imag) grid.

Every cell follows the same per-component update formulas and the same
membership rule: the squared magnitude of the final iterate must be
below the threshold, and a non-finite iterate counts as escaped.  The
ufuncs are elementwise, so a cell's outcome does not depend on how the
rows are split into chunks, and the kernel is deterministic for fixed
inputs.
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
    a = a.astype(np.float64)
    b = b.astype(np.float64)
    if code == CODE_MANDELBROT:
        cr, ci = a.copy(), b.copy()
        a = np.zeros_like(a)
        b = np.zeros_like(b)
    else:
        cr, ci = c_re, c_im
    escaped = np.zeros(a.shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(iterations):
            if early_exit:
                escaped |= ~(a * a + b * b < threshold)
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
        alive = a * a + b * b < threshold
    if early_exit:
        alive &= ~escaped
    return alive
