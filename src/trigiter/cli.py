"""Command-line interface.

Subcommands expose the library operations with conventional flag
parsing; the `legacy` subcommand instead reproduces the classic
escape-time scanner byte-for-byte, including its C-style argument
parsing, its usage-then-success quirk, and its exact output format.

Exit codes: 0 success, 1 validation or usage error, 2 internal error;
a reader that closes stdout early ends the command with 0.

Importing this module loads no numpy: the caps and defaults the parser
checks come from `iteration`, and the handlers of `series` and of the
scans import `series` and `fractal`, which import numpy, when they run.
So `dottie`, `iterate`, `derivative`, `bounds` and `extrema` start
without numpy.  The scans call `scan_raw` and `format_points` through
this module's namespace (see `_fractal`), where a test or a tracer may
replace them.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys

from .derivatives import extrema_locations, iterated_derivative
from .iteration import (
    _ESCAPE_ITERATIONS,
    _ESCAPE_THRESHOLD_SQ,
    MANDELBROT,
    MAX_DIGITS,
    MAX_GRID,
    MAX_ITERATIONS,
    MAX_TRUNCATION,
    ConvergenceError,
    SolverMethod,
    TrigKind,
    _check_count,
    _check_real,
    _max_iterations,
    cos_range,
    dottie,
    dottie_digits,
    iterate,
    sin_envelope,
)

# Caps on the count flags, each checked where its flag is parsed.  Each
# bounds one command's work: MAX_STEPS map steps, MAX_SERIES_ORDER - 1
# series compositions, four printed extrema per period.  README's table
# of input limits gives what one unit of that work costs.
MAX_STEPS = 10**6
MAX_SERIES_ORDER = 100
MAX_PERIODS = 10**4

_INT_PREFIX = re.compile(r"[ \t\n\r\f\v]*([+-]?\d+)")
_FLOAT_PREFIX = re.compile(
    r"[ \t\n\r\f\v]*([+-]?(?:\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|[iI][nN][fF](?:[iI][nN][iI][tT][yY])?|[nN][aA][nN]))"
)


def _atoi(text: str) -> int:
    """Leading-prefix integer parse; anything unparsable is 0, as in C."""
    m = _INT_PREFIX.match(text)
    return int(m.group(1)) if m else 0


def _atof(text: str) -> float:
    """Leading-prefix float parse; anything unparsable is 0.0, as in C."""
    m = _FLOAT_PREFIX.match(text)
    return float(m.group(1)) if m else 0.0


def _fmt(x: float) -> str:
    """Shortest decimal string that parses back to `x`: at most 17 significant digits, nan as is."""
    for precision in range(1, 18):
        s = "%.*g" % (precision, x)
        if float(s) == x:
            return s
    return "%.16g" % x


def _fmt_value(v: complex | float) -> str:
    if isinstance(v, complex):
        sign = "-" if math.copysign(1.0, v.imag) < 0 else "+"
        return f"{_fmt(v.real)}{sign}{_fmt(abs(v.imag))}j"
    return _fmt(v)


def _flag(convert):
    """argparse type from `convert`: a ValueError becomes a usage error naming the flag."""

    def parse(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _count(name: str, low: int = 0, high: int | None = None):
    return _flag(lambda text: _check_count(int(text), name, low, high))


def _finite(name: str, positive: bool = False):
    return _flag(lambda text: _check_real(float(text), name, positive))


def _parse_value(text: str) -> complex | float:
    for convert in (float, complex):
        try:
            value = convert(text)
        except ValueError:
            continue
        if math.isfinite(value.real) and math.isfinite(value.imag):
            return value
        raise ValueError(f"start value must be finite, got {text!r}")
    raise ValueError(f"{text!r} is neither a real nor a complex number")


def _parse_region(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError("region must be four comma-separated numbers: x1,y1,x2,y2")
    x1, y1, x2, y2 = (_check_real(float(p), name) for p, name in zip(parts, ("x1", "y1", "x2", "y2")))
    # lower-left corner first.  min and max return their first argument on
    # a tie, so an axis from 0.0 to -0.0 (or back) keeps the first sign at both ends.
    return min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 1 on usage errors instead of 2."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _cmd_dottie(args: argparse.Namespace) -> int:
    if args.digits is not None:
        print(dottie_digits(args.digits))
        return 0
    try:
        result = dottie(args.tol, SolverMethod(args.method), args.max_iterations)
    except ConvergenceError as exc:
        raise ConvergenceError(f"{exc}; raise --max-iterations or loosen --tol") from None
    decimals = min(17, round(-math.log10(args.tol))) if args.tol <= 1.0 else 12
    print(f"{result.value:.{decimals}f}")
    print(f"method: {result.method.value}")
    print(f"iterations: {result.iterations}")
    print(f"residual: {result.residual:.6e}")
    print(f"value: {_fmt(result.value)}")
    return 0


def _cmd_iterate(args: argparse.Namespace) -> int:
    value = iterate(args.f, args.n, args.v)
    print(_fmt_value(value))
    return 0


def _cmd_derivative(args: argparse.Namespace) -> int:
    value = iterated_derivative(args.f, args.n, args.x)
    print(_fmt(value))
    if args.check:
        h = 1e-6
        fd = (iterate(args.f, args.n, args.x + h) - iterate(args.f, args.n, args.x - h)) / (2 * h)
        print(f"finite-difference: {_fmt(fd)}")
        print(f"difference: {abs(value - fd):.3e}")
    return 0


def _cmd_series(args: argparse.Namespace) -> int:
    from .series import TailBoundError, iterated_series

    try:
        series = iterated_series(args.f, args.order, args.terms)
    except TailBoundError as exc:
        # the error speaks of the working truncation, which no flag sets
        raise ValueError(
            f"argument --order: --f {args.f.value} --order {args.order} --terms {args.terms} has no"
            " tail estimate: it diverges from this --order on, for any --terms; use a lower --order"
        ) from exc
    print(" ".join(f"c{k}={_fmt(c)}" for k, c in enumerate(series.coefficients)))
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    if args.f is TrigKind.COSINE:
        bound = cos_range(args.n)
        lower, upper = bound.lower, bound.upper
    else:
        # sin maps the reals onto [-1, 1], which sin^(n-1) maps onto [-s_(n-1), s_(n-1)]
        half = 1.0 if args.n == 1 else sin_envelope(args.n - 1)
        lower, upper = -half, half
    print(f"lower={_fmt(lower)} upper={_fmt(upper)}")
    return 0


def _cmd_extrema(args: argparse.Namespace) -> int:
    for locus in extrema_locations(args.f, args.n, args.periods):
        print(_fmt(locus))
    return 0


def _fractal(name: str):
    """fractal's `name` as this module holds it, bound from fractal on first use.

    fractal imports numpy, so this module binds its scan_raw and
    format_points only when a scan runs or one of them is read off the
    module.  A value bound before, such as a test's or a tracer's
    replacement, is kept, and it is the one that runs.
    """
    from . import fractal

    return globals().setdefault(name, getattr(fractal, name))


def __getattr__(name: str):
    if name in ("scan_raw", "format_points"):
        return _fractal(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _scan(region, grid: int, mapping, params, workers=None, padded: bool = True) -> int:
    """Scan and write the survivors: the one scan path of `legacy`, `julia` and `mandelbrot`.

    The text goes out one row block at a time, so a scan holds its mask
    and one block's lines rather than the whole output.
    """
    scan_raw, format_points = _fractal("scan_raw"), _fractal("format_points")
    for block in scan_raw(*region, grid, mapping, params, workers=workers).row_blocks():
        sys.stdout.write(format_points(block, padded=padded))
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    from .fractal import EscapeParams

    _check_count(args.iterations, f"--iterations at --grid {args.grid}", 0, _max_iterations(args.grid))
    params = EscapeParams(args.iterations, args.threshold, args.early_exit)
    return _scan(args.region, args.grid, args.f, params, args.workers, padded=(args.format == "gnuplot"))


def _add_scan_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--region",
        type=_flag(_parse_region),
        default="-2.5,-2.5,2.5,2.5",
        help="corners as x1,y1,x2,y2 (default %(default)s)",
    )
    parser.add_argument(
        "--grid",
        type=_count("grid", 2, MAX_GRID),
        default=500,
        help=f"samples per axis, at most {MAX_GRID} (default %(default)s)",
    )
    parser.add_argument(
        "--iterations",
        type=_count("iterations", 0, MAX_ITERATIONS),
        default=_ESCAPE_ITERATIONS,
        help="orbit length; the cap shrinks with the grid (default %(default)s)",
    )
    parser.add_argument(
        "--threshold",
        type=_finite("threshold", True),
        default=_ESCAPE_THRESHOLD_SQ,
        help="escape bound on the squared magnitude (default %(default)s)",
    )
    parser.add_argument(
        "--workers",
        type=_count("workers", 1),
        default=None,
        help="scan threads, each scanning every n-th row, capped at the usable CPUs and at one"
        " per tile of rows (default: all usable CPUs); Mandelbrot scans run on the calling thread",
    )
    parser.add_argument(
        "--format",
        choices=("gnuplot", "plain"),
        default="gnuplot",
        help="gnuplot: 25-column aligned; plain: single-space separated",
    )
    parser.add_argument(
        "--early-exit",
        action="store_true",
        help="count a point as escaped once its orbit crosses the threshold",
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args leaves the parser as it was, and
    # building it takes about 2 ms, a tenth of a small scan request.
    parser = _Parser(prog="trigiter", description="Iterated cosine and sine toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name: str, summary: str, func, maps: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        if maps:  # the one declaration of --f: every handler receives a TrigKind
            p.add_argument("--f", required=True, type=_flag(TrigKind.parse), metavar="{cos,sin}")
        p.set_defaults(func=func)
        return p

    p = command("dottie", "solve cos(x) = x", _cmd_dottie, maps=False)
    tol = _finite("tolerance", True)
    p.add_argument("--tol", type=tol, default=1e-12, help="tolerance (default %(default)s)")
    p.add_argument(
        "--method",
        choices=tuple(m.value for m in SolverMethod),
        default=SolverMethod.FIXED_POINT.value,
    )
    p.add_argument("--max-iterations", type=_count("max_iterations", 1, MAX_STEPS), default=1000)
    p.add_argument(
        "--digits",
        type=_count("digits", 1, MAX_DIGITS),
        default=None,
        help="print this many proven digits instead (max 64)",
    )

    p = command("iterate", "apply cos or sin n times", _cmd_iterate)
    p.add_argument("--n", required=True, type=_count("order", 0, MAX_STEPS), help="iteration count")
    p.add_argument("--v", type=_flag(_parse_value), default=0.0, help="real or complex start")

    p = command("derivative", "closed-form iterate derivative", _cmd_derivative)
    p.add_argument("--n", required=True, type=_count("order", 0, MAX_STEPS))
    p.add_argument("--x", required=True, type=_finite("x"))
    p.add_argument("--check", action="store_true", help="print a finite-difference cross-check")

    p = command("series", "Maclaurin coefficients of an iterate", _cmd_series)
    order, terms = _count("order", 0, MAX_SERIES_ORDER), _count("truncation", 0, MAX_TRUNCATION)
    p.add_argument("--order", required=True, type=order, help="iteration count")
    p.add_argument("--terms", required=True, type=terms, help="truncation order")

    p = command("bounds", "range of an iterate", _cmd_bounds)
    p.add_argument("--n", required=True, type=_count("order", 1, MAX_STEPS))

    p = command("extrema", "extrema loci of an iterate", _cmd_extrema)
    p.add_argument("--n", required=True, type=_count("order", 1, MAX_STEPS))
    periods = _count("periods", 1, MAX_PERIODS)
    p.add_argument("--periods", type=periods, default=1, help="half-width in multiples of pi")

    _add_scan_flags(command("julia", "escape-time scan of a trig map", _cmd_scan))
    p = command("mandelbrot", "escape-time scan of z*z + c", _cmd_scan, maps=False)
    _add_scan_flags(p)
    p.set_defaults(f=MANDELBROT)

    sub.add_parser(
        "legacy",
        help="classic scanner: legacy x1 y1 x2 y2 grid cos|sin",
        add_help=False,
    )
    return parser


def _run_legacy(args: list[str]) -> int:
    # Arguments are consumed exactly as the classic program did: C-style
    # numeric parsing, raw argument echoed in the grid error, usage to
    # stdout with a success exit when arguments are missing.
    if len(args) < 6:
        sys.stdout.write("Usage: trigiter legacy x1 y1 x2 y2 grid cos|sin\n")
        return 0
    x1, y1, x2, y2 = (_atof(s) for s in args[:4])
    grid_text = args[4]
    name = args[5]
    grid = _atoi(grid_text)
    if grid < 2:
        print(f"Grid ({grid_text}) must be >= 2", file=sys.stderr)
        return 1
    if grid > MAX_GRID:
        print(f"Grid ({grid_text}) must be <= {MAX_GRID}", file=sys.stderr)
        return 1
    try:
        kind = TrigKind.parse(name)
    except ValueError:
        print(f"Type sin or cos but not {name}", file=sys.stderr)
        return 1
    from .fractal import EscapeParams

    return _scan((x1, y1, x2, y2), grid, kind, EscapeParams())


# argparse reads a value that begins with a dash as an option string
# unless it is a plain negative number such as -1 or -.5; exponents,
# comma-joined regions, complex literals, -inf and -nan are not.  A dashed
# value after any --flag is therefore merged into --flag=value form.
_DASHED_VALUE = re.compile(r"-(?:[\d.]|inf|nan)", re.IGNORECASE)


def _merge_dashed_values(argv: list[str]) -> list[str]:
    merged: list[str] = []
    for token in argv:
        flag = merged[-1] if merged else ""
        if _DASHED_VALUE.match(token) and flag.startswith("--") and flag != "--" and "=" not in flag:
            merged[-1] = f"{flag}={token}"
        else:
            merged.append(token)
    return merged


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "legacy":
        command, args = _run_legacy, argv[1:]
    else:
        args = _build_parser().parse_args(_merge_dashed_values(argv))
        command = args.func
    try:
        return command(args)
    except BrokenPipeError:  # the reader closed early, as `| head` does: not an error
        return 0
    except (ValueError, ConvergenceError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except Exception as exc:  # mirror the classic catch-all
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    """The `trigiter` command: run `main` and exit with its code.

    If the reader has closed stdout, output still buffered cannot be
    flushed; stdout's descriptor then goes to the null device, so the
    flush at exit does not raise again.  Only the command does this, as
    `main` also runs inside other processes.
    """
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    sys.exit(code)
