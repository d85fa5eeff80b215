"""Host speed: fixed jobs of the benchmark's own, timed between requests.

On a shared host, other tenants slow this machine's processors by up
to 2x in spells of seconds to minutes, which swamps most changes to the
program in raw wall time.  The probe is a fixed job that uses the
machine the way the workload does: the benchmark's numpy escape-time
reference pass in two threads at once ("arrays"), Python float
formatting ("formatting"), or both.  It runs no program code, so no
change to the program can move it.

The slowdown is the probe's time over its nominal time.  A request's
latency divided by the slowdown of the latest probes is its latency at
nominal host speed: the `norm_` metrics.
"""

from __future__ import annotations

import statistics
import threading
import time

import checks
from workloads import ScanSpec

# Probe parts per workload and their nominal times, roughly their times
# on an idle 2-vCPU host; the nominal times only set the scale of the
# normalized metrics.
PARTS = {
    "legacy-dense": ("arrays", "formatting"),
    "mandelbrot-escape": ("arrays",),
    "calculus": ("formatting",),
}
NOMINAL_S = {"arrays": 0.025, "formatting": 0.025}
EVERY_S = 0.5  # program time between probes
RECENT = 3  # probes in the running median

_SPEC = ScanSpec(-2.5, -2.5, 2.5, 2.5, 120, "cos")
_VALUES = [k * 1.37 for k in range(15000)]


def _reference_pass() -> None:
    _, xs, ys = checks.grid_axes(_SPEC)
    checks.reference_pass(_SPEC, xs, ys)


def _arrays() -> None:
    threads = [threading.Thread(target=_reference_pass) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def _formatting() -> None:
    for v in _VALUES:
        "%25s %25s\n" % ("%.16g" % v, "%.16g" % v)


_JOBS = {"arrays": _arrays, "formatting": _formatting}


class HostSpeed:
    """Probes at even steps of program time."""

    def __init__(self, workload: str):
        self.jobs = [_JOBS[part] for part in PARTS[workload]]
        self.nominal = sum(NOMINAL_S[part] for part in PARTS[workload])
        self._probe()  # warm-up: first-call costs are not host speed
        self.times = [self._probe()]
        self.next = EVERY_S

    def _probe(self) -> float:
        start = time.perf_counter()
        for job in self.jobs:
            job()
        return time.perf_counter() - start

    def due(self, busy: float) -> None:
        """Probe once `busy` seconds of program time have passed since the last probe."""
        if busy >= self.next:
            self.times.append(self._probe())
            self.next = busy + EVERY_S

    def slowdown(self) -> float:
        """The running median of the latest probes over their nominal time."""
        return statistics.median(self.times[-RECENT:]) / self.nominal

    def median_slowdown(self) -> float:
        return statistics.median(self.times) / self.nominal
