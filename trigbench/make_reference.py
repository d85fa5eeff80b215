"""Regenerate the benchmark's frozen reference data.

    python3 trigbench/make_reference.py series   # data/series_reference.json
    python3 trigbench/make_reference.py golden   # data/golden.json

`series` stores mpmath.taylor coefficients (40 digits, degree 30) of
the cos and sin iterates of order 1..12; they do not depend on the
program.  `golden` stores the SHA-256 of every scan output of the
default seed's first cycle.  Those digests pin the output bytes: refresh
them only when a change is meant to alter the output, and say so.
"""

from __future__ import annotations

import json
import sys

import mpmath

import run
import workloads

TAYLOR_DIGITS = 40
TAYLOR_DEGREE = 30


def series_reference() -> dict:
    table = {}
    for kind, f in (("cos", mpmath.cos), ("sin", mpmath.sin)):
        table[kind] = {}
        for n in workloads.SERIES_ORDERS:

            def iterate(x, n=n, f=f):
                for _ in range(n):
                    x = f(x)
                return x

            with mpmath.workdps(TAYLOR_DIGITS):
                coeffs = mpmath.taylor(iterate, 0, TAYLOR_DEGREE)
                table[kind][str(n)] = [mpmath.nstr(c, TAYLOR_DIGITS) for c in coeffs]
    return {"iterated_series": table}


def golden() -> dict:
    trigiter, cli = run.load_program()
    frozen = {}
    for name in ("legacy-dense", "mandelbrot-escape"):
        runner = run.Runner(name, run.DEFAULT_SEED, trigiter, cli)
        entries = []
        for request in runner.cycle():
            result = runner.execute(request)
            if result.error is not None:
                raise SystemExit(f"{request.label}: {result.error}")
            argv = request.label.split()
            entries.append({"argv": argv, "grid": request.scan.grid, "sha256": result.sha256})
        frozen[name] = entries
    return frozen


def main(argv: list[str]) -> int:
    if argv[1:] == ["series"]:
        path, data = run.DATA / "series_reference.json", series_reference()
    elif argv[1:] == ["golden"]:
        path, data = run.DATA / "golden.json", golden()
    else:
        print(__doc__, file=sys.stderr)
        return 1
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
