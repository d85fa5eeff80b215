"""Time the costliest command lines the CLI admits, each in a fresh process.

    python3 tools/worst_case.py

Runs each command of COMMANDS, the slowest input found for each
subcommand at its caps, as `python -m trigiter` on this checkout's
`src`, with stdout to /dev/null.  Each command runs under its own
wrapper process, whose RUSAGE_CHILDREN sees that command alone, and
prints one line: wall seconds, the command's peak RSS in MiB, its exit
code and its arguments.  Exits 1 if any command exits non-zero, or if
the grid-4501 cos or sin scan on two threads peaks more than
THREAD_SLACK_MIB above the cos scan on one: each thread writes its rows
into the scan's one mask, so a second thread adds only its working
arrays.  Else exits 0.  The twelve commands take 40-55 s in all on a
2-vCPU x86-64 host.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

SCAN_4501 = ["--grid", "4501", "--iterations", "52", "--threshold", "1e300"]
ONE_THREAD = ["julia", "--f", "cos", *SCAN_4501, "--workers", "1"]
TWO_THREADS = [["julia", "--f", name, *SCAN_4501, "--workers", "2"] for name in ("cos", "sin")]
THREAD_SLACK_MIB = 5.0

COMMANDS = [
    ["series", "--f", "cos", "--order", "100", "--terms", "170"],
    # an untrapped window inside the period-4 bulb: all 4 orbits run every step
    ["mandelbrot", "--grid", "2", "--iterations", "1044495", "--region=-1.31,0,-1.30,0.01"],
    ["julia", "--f", "sin", *SCAN_4501],
    ["julia", "--f", "cos", *SCAN_4501],
    ONE_THREAD,
    *TWO_THREADS,
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
    peaks = {}
    for argv in COMMANDS:
        wall, peaks[tuple(argv)], code = run(argv)
        failed += code != 0
        print(f"{wall:8.2f} {peaks[tuple(argv)]:9.1f} {code:4d}  {' '.join(argv)}", flush=True)
    for argv in TWO_THREADS:
        excess = peaks[tuple(argv)] - peaks[tuple(ONE_THREAD)]
        if excess > THREAD_SLACK_MIB:
            print(f"{' '.join(argv)} peaks {excess:.1f} MiB above one thread, more than {THREAD_SLACK_MIB}")
            failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
