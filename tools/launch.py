"""Start one fresh interpreter on a checkout's `src` and measure it: the tools' one launcher."""

from __future__ import annotations

import os
import subprocess
import sys
import time


def launch(src, args: list[str], capture: bool = False) -> tuple[float, float, int, str | None]:
    """Run `sys.executable *args` with PYTHONPATH=src, stdout to the null device or, with `capture`, returned.

    Returns wall seconds from start to reaping, the child's peak RSS in
    MiB, its exit code and its stdout (None without `capture`).
    `os.wait4` reaps the child and reports its own `ru_maxrss`, so no
    other process is counted.
    """
    env = {**os.environ, "PYTHONPATH": str(src)}
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, *args], env=env, stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
                          text=True) as proc:
        out = proc.stdout.read() if capture else None
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # so Popen does not wait for it again
    return wall, usage.ru_maxrss / 1024, proc.returncode, out
