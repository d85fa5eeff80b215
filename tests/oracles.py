"""Independent reference implementations used as test oracles.

Everything here is deliberately written from scratch against the
expected behavior (scalar loops, stdlib only) rather than calling into
the package, so agreement is meaningful.
"""

import itertools
import math
from decimal import Decimal, getcontext


def _cosh(x: float) -> float:
    try:
        return math.cosh(x)
    except OverflowError:
        return math.inf


def _sinh(x: float) -> float:
    try:
        return math.sinh(x)
    except OverflowError:
        return math.copysign(math.inf, x)


def grid_samples(x1, y1, x2, y2, n):
    """(re, im) of each sample in scan order, by cumulative stepping.

    The imaginary coordinate restarts from y1 for each real step; the
    real coordinate accumulates, and only the very first sample keeps
    x1 as given (later samples carry ``x + 0.0``, which drops a -0.0).
    """
    dzr = (x2 - x1) / (n - 1)
    dzi = (y2 - y1) / (n - 1)
    ys = []
    y = y1
    for _ in range(n):
        ys.append(y)
        y += dzi
    x = x1
    for _ in range(n):
        first = x
        rest = x + 0.0
        for i in range(n):
            yield (first if i == 0 else rest), ys[i]
        x = rest + dzr


def survivors(ps):
    """(re, im) of every set cell of a PointSet's mask, row by row, as floats.

    Column i has imaginary coordinate ys[i].  Row r has real coordinate
    xs[r] in its first cell and xs[r] + 0.0 in the others, as in
    grid_samples, so only a row's first cell can keep a -0.0.
    """
    xs, ys = ps.xs.tolist(), ps.ys.tolist()
    return [
        (xs[r] if i == 0 else xs[r] + 0.0, ys[i])
        for r, row in enumerate(ps.mask.tolist())
        for i, cell in enumerate(row)
        if cell
    ]


def lines(samples, padded=True):
    """Output text of (re, im) samples: one line each, both at 16 significant
    digits, right-aligned to 25 columns (gnuplot) or single-spaced (plain)."""
    line = "%25s %25s\n" if padded else "%s %s\n"
    return "".join(line % ("%.16g" % re, "%.16g" % im) for re, im in samples)


def straightline_scan(x1, y1, x2, y2, n, name, iterations=50, threshold=10.0):
    """Scalar escape-time scan with cumulative stepping; returns formatted text."""
    survivors = []
    for re, im in grid_samples(x1, y1, x2, y2, n):
        a, b = re, im
        for _ in range(iterations):
            if not (math.isfinite(a) and math.isfinite(b)):
                break
            if name == "cos":
                a, b = math.cos(a) * _cosh(b), -math.sin(a) * _sinh(b)
            else:
                a, b = math.sin(a) * _cosh(b), math.cos(a) * _sinh(b)
        if a * a + b * b < threshold:
            survivors.append((re, im))
    return lines(survivors)


def quadratic_scan(x1, y1, x2, y2, n, c=None, iterations=50, threshold=10.0, early_exit=False):
    """Scalar scan of z -> z*z + c in the same sample order; returns formatted text.

    With ``c=None`` the map is the Mandelbrot family: each sample is the
    parameter and the orbit starts at 0.
    """
    survivors = []
    for re, im in grid_samples(x1, y1, x2, y2, n):
        z = complex(re, im)
        start, param = (0j, z) if c is None else (z, c)
        if quadratic_survives(start, param, iterations, threshold, early_exit):
            survivors.append((re, im))
    return lines(survivors)


def orbit_survives(z: complex, name: str, iterations=50, threshold=10.0, early_exit=False) -> bool:
    """Escape test via cmath, an implementation unrelated to the package's;
    with early_exit every iterate z_0..z_N must stay below the threshold."""
    import cmath

    f = cmath.cos if name == "cos" else cmath.sin
    for _ in range(iterations):
        if early_exit and not z.real * z.real + z.imag * z.imag < threshold:
            return False
        try:
            z = f(z)
        except (OverflowError, ValueError):
            return False
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            return False
    return z.real * z.real + z.imag * z.imag < threshold  # x * x: abs(x) ** 2 raises past 1.3e154


def quadratic_survives(v: complex, c: complex, iterations=50, threshold=10.0, early_exit=False) -> bool:
    """Final-iterate test of z -> z*z + c from v; with early_exit every
    iterate z_0..z_N must stay below the threshold."""
    z = complex(v)
    for _ in range(iterations):
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            return False
        if early_exit and not z.real * z.real + z.imag * z.imag < threshold:
            return False
        z = z * z + c
    norm = z.real * z.real + z.imag * z.imag
    return math.isfinite(norm) and norm < threshold


def decimal_cos(x: Decimal) -> Decimal:
    """Taylor cosine under the current decimal context."""
    term = Decimal(1)
    total = Decimal(1)
    x2 = x * x
    k = 0
    while abs(term) > Decimal(10) ** -(getcontext().prec + 5):
        k += 2
        term *= -x2 / (k * (k - 1))
        total += term
    return total


def decimal_sin(x: Decimal) -> Decimal:
    term = x
    total = x
    x2 = x * x
    k = 1
    while abs(term) > Decimal(10) ** -(getcontext().prec + 5):
        k += 2
        term *= -x2 / (k * (k - 1))
        total += term
    return total


def decimal_dottie(precision: int = 90) -> Decimal:
    """Newton solve of cos(x) = x in decimal arithmetic."""
    getcontext().prec = precision
    x = Decimal("0.739")
    for _ in range(12):
        x = x + (decimal_cos(x) - x) / (1 + decimal_sin(x))
    return x


def multinomial_product_derivative(tables, order):
    """Order-n derivative of a product by the multinomial rule, term by term.

    Loops over every tuple of per-factor derivative orders in 0..order
    and keeps those summing to order, each weighted by
    order! / (k_1! ... k_m!).
    """
    total = 0
    for ks in itertools.product(range(order + 1), repeat=len(tables)):
        if sum(ks) != order:
            continue
        term = math.factorial(order)
        for k in ks:
            term //= math.factorial(k)
        for k, table in zip(ks, tables):
            term = term * table[k]
        total = total + term
    return total
