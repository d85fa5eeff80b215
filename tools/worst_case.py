"""Time the costliest command lines the CLI admits, each in a fresh process.

    python3 tools/worst_case.py

Runs each command of COMMANDS, the slowest input found for each
subcommand at its caps and the largest scans on one, two and every
usable thread, as `python -m trigiter` on this checkout's `src` with
stdout to /dev/null, through `launch`, and prints one line per
command: wall seconds, its peak RSS in MiB, its exit code and its
arguments.  Exits 1 if any command exits non-zero or peaks at
CEILING_MIB or more, or if a grid-4501 cos or sin scan on two threads
peaks more than THREAD_SLACK_MIB above the same map's scan on one:
each thread writes its rows into the scan's one mask, so a second
thread adds only its working arrays.  Else exits 0.  The fifteen
commands take 55-75 s in all on a 2-vCPU x86-64 host.
"""

from __future__ import annotations

import pathlib
import sys

from launch import launch

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

SCAN_4501 = ["--grid", "4501", "--iterations", "52", "--threshold", "1e300"]
THREADS = {name: [["julia", "--f", name, *SCAN_4501, "--workers", str(n)] for n in (1, 2)] for name in ("cos", "sin")}
THREAD_SLACK_MIB = 5.0
CEILING_MIB = 256.0

COMMANDS = [
    ["series", "--f", "cos", "--order", "100", "--terms", "170"],
    # an untrapped window inside the period-4 bulb: all 4 orbits run every step
    ["mandelbrot", "--grid", "2", "--iterations", "1044495", "--region=-1.31,0,-1.30,0.01"],
    ["julia", "--f", "sin", *SCAN_4501],
    ["julia", "--f", "cos", *SCAN_4501],
    *THREADS["cos"],
    *THREADS["sin"],
    # every usable thread writing its rows into the scan's one mask, and every line written
    ["legacy", "-2.5", "-2.5", "2.5", "2.5", "4501", "cos"],
    ["legacy", "-2.5", "-2.5", "2.5", "2.5", "4501", "sin"],
    # inside the period-4 bulb: every orbit runs every step, and the interior pre-pass marks none
    ["mandelbrot", "--grid", "4501", "--iterations", "52", "--region=-1.315,-0.005,-1.305,0.005"],
    ["mandelbrot", "--grid", "4501", "--iterations", "52"],
    ["extrema", "--f", "cos", "--n", "2", "--periods", "10000"],
    ["series", "--f", "sin", "--order", "6", "--terms", "170"],
    # the four corners escape at once
    ["julia", "--f", "cos", "--grid", "2", "--iterations", "1044495"],
]


def main() -> int:
    print(f"{'wall s':>8} {'peak MiB':>9} {'exit':>4}  command")
    failed = 0
    peaks = {}
    for argv in COMMANDS:
        wall, peak, code, _ = launch(SRC, ["-m", "trigiter", *argv])
        peaks[tuple(argv)] = peak
        failed += code != 0 or peak >= CEILING_MIB
        print(f"{wall:8.2f} {peak:9.1f} {code:4d}  {' '.join(argv)}", flush=True)
    for one, two in THREADS.values():
        excess = peaks[tuple(two)] - peaks[tuple(one)]
        if excess > THREAD_SLACK_MIB:
            print(f"{' '.join(two)} peaks {excess:.1f} MiB above one thread, more than {THREAD_SLACK_MIB}")
            failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
