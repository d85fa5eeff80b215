"""tools/scan_parity.py against copies of this checkout's src: it must see one wrong mask bit."""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

import trigiter

SRC = pathlib.Path(trigiter.__file__).resolve().parents[1]
TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "scan_parity.py"

# appended to a copy of _kernels.py: every Mandelbrot grid comes back with its first cell flipped
FLIP_FIRST_CELL = '''

_survive = survive


def survive(xs, ys, mapping, *args):
    grid = _survive(xs, ys, mapping, *args)
    if mapping is MANDELBROT:
        grid[0, 0] = not grid[0, 0]
    return grid
'''


def run_tool(baseline):
    return subprocess.run(
        [sys.executable, str(TOOL), str(baseline), "--scans", "20", "--seed", "0"],
        capture_output=True,
        text=True,
    )


@pytest.mark.skipif(SRC.name != "src" or not TOOL.exists(), reason="needs the checkout's src and tools")
class TestScanParityTool:
    def test_an_unchanged_copy_reads_no_difference(self, tmp_path):
        shutil.copytree(SRC / "trigiter", tmp_path / "trigiter")
        proc = run_tool(tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "20 scans" in proc.stdout and "differs:" not in proc.stdout

    def test_one_flipped_mandelbrot_mask_bit_fails_and_names_each_case(self, tmp_path):
        shutil.copytree(SRC / "trigiter", tmp_path / "trigiter")
        with open(tmp_path / "trigiter" / "_kernels.py", "a") as kernel:
            kernel.write(FLIP_FIRST_CELL)
        proc = run_tool(tmp_path)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        named = [json.loads(line.split(":", 1)[1]) for line in proc.stdout.splitlines() if line.startswith("differs:")]
        # every third drawn case is a Mandelbrot scan: 6 of 20
        assert [case["name"] for case in named] == ["mandelbrot"] * 6
        assert "6 differ" in proc.stdout
        assert "library calls, 0 differ" in proc.stdout and "command lines, 0 differ" in proc.stdout
