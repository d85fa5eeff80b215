"""Time the costliest command lines the CLI admits, each in a fresh process.

    python3 tools/worst_case.py

Runs each command of COMMANDS, the slowest input found for each
subcommand at its caps, as `python -m trigiter` on this checkout's
`src`, with stdout to /dev/null.  Each command runs under its own
wrapper process, whose RUSAGE_CHILDREN sees that command alone, and
prints one line: wall seconds, the command's peak RSS in MiB, its exit
code and its arguments.  Exits 1 if any command exits non-zero, else 0.
The nine commands take 30-45 s in all on a 2-vCPU x86-64 host.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

COMMANDS = [
    ["series", "--f", "cos", "--order", "100", "--terms", "170"],
    # an untrapped window inside the period-4 bulb: all 4 orbits run every step
    ["mandelbrot", "--grid", "2", "--iterations", "1044495", "--region=-1.31,0,-1.30,0.01"],
    ["julia", "--f", "sin", "--grid", "4501", "--iterations", "52", "--threshold", "1e300"],
    ["julia", "--f", "cos", "--grid", "4501", "--iterations", "52", "--threshold", "1e300"],
    # inside the period-4 bulb: every orbit runs every step, and the interior pre-pass marks none
    ["mandelbrot", "--grid", "4501", "--iterations", "52", "--region=-1.315,-0.005,-1.305,0.005"],
    ["mandelbrot", "--grid", "4501", "--iterations", "52"],
    ["extrema", "--f", "cos", "--n", "2", "--periods", "10000"],
    ["series", "--f", "sin", "--order", "6", "--terms", "170"],
    # the four corners escape at once
    ["julia", "--f", "cos", "--grid", "2", "--iterations", "1044495"],
]

WRAPPER = (
    "import os, resource, subprocess, sys, time\n"
    "start = time.perf_counter()\n"
    "with open(os.devnull, 'w') as null:\n"
    "    code = subprocess.run([sys.executable, '-m', 'trigiter', *sys.argv[1:]], stdout=null).returncode\n"
    "wall = time.perf_counter() - start\n"
    "print(wall, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, code)\n"
)


def run(argv: list[str]) -> tuple[float, float, int]:
    """Wall seconds, peak RSS in MiB and exit code of one command in a fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", WRAPPER, *argv], env=env, capture_output=True, text=True, check=True)
    wall, peak, code = out.stdout.split()
    return float(wall), float(peak), int(code)


def main() -> int:
    print(f"{'wall s':>8} {'peak MiB':>9} {'exit':>4}  command")
    failed = 0
    for argv in COMMANDS:
        wall, peak, code = run(argv)
        failed += code != 0
        print(f"{wall:8.2f} {peak:9.1f} {code:4d}  {' '.join(argv)}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
