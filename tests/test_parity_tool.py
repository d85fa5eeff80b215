"""tools/scan_parity.py against copies of this checkout's src: it must see one wrong mask bit,
one number printed in fewer digits and one wrong Dottie digit, each in its own section."""

import json
import pathlib
import re
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

# appended to a copy of cli.py: every number the calculus commands print at 16 digits, not the shortest
SIXTEEN_DIGITS = '''


def _fmt(x):
    return "%.16g" % x
'''

# appended to a copy of iteration.py: the last digit of every Dottie string one more, mod 10
LAST_DIGIT_OFF = '''

_dottie_digits = dottie_digits


def dottie_digits(digits=MAX_DIGITS):
    text = _dottie_digits(digits)
    return text[:-1] + str((int(text[-1]) + 1) % 10)
'''

SUBCOMMANDS = ("dottie", "iterate", "derivative", "series", "bounds", "extrema")


def run_tool(baseline):
    return subprocess.run(
        [sys.executable, str(TOOL), str(baseline), "--scans", "20", "--seed", "0"],
        capture_output=True,
        text=True,
    )


def run_injected(tmp_path, module, code):
    """The tool's run against a copy of src with `code` appended to trigiter/`module`."""
    shutil.copytree(SRC / "trigiter", tmp_path / "trigiter")
    with open(tmp_path / "trigiter" / module, "a") as source:
        source.write(code)
    return run_tool(tmp_path)


def named(proc):
    """The cases the tool names as differing, decoded."""
    return [json.loads(line.split(":", 1)[1]) for line in proc.stdout.splitlines() if line.startswith("differs:")]


def differing(proc):
    """How many scans, library calls and command lines the tool counts as differing."""
    found = re.search(r"(\d+) scans, \d+ with survivors, (\d+) differ\n\d+ library calls, (\d+) differ\n"
                      r"\d+ command lines, (\d+) differ", proc.stdout)
    assert found, proc.stdout + proc.stderr
    assert found[1] == "20"
    return {"scans": int(found[2]), "calls": int(found[3]), "argvs": int(found[4])}


@pytest.mark.skipif(SRC.name != "src" or not TOOL.exists(), reason="needs the checkout's src and tools")
class TestScanParityTool:
    def test_an_unchanged_copy_reads_no_difference(self, tmp_path):
        shutil.copytree(SRC / "trigiter", tmp_path / "trigiter")
        proc = run_tool(tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "20 scans" in proc.stdout and "differs:" not in proc.stdout

    def test_one_flipped_mandelbrot_mask_bit_fails_and_names_each_case(self, tmp_path):
        proc = run_injected(tmp_path, "_kernels.py", FLIP_FIRST_CELL)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        # every third drawn case is a Mandelbrot scan: 6 of 20
        assert [case["name"] for case in named(proc)] == ["mandelbrot"] * 6
        assert differing(proc) == {"scans": 6, "calls": 0, "argvs": 0}

    def test_a_number_printed_in_sixteen_digits_fails_and_names_its_command_line(self, tmp_path):
        proc = run_injected(tmp_path, "cli.py", SIXTEEN_DIGITS)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        counts = differing(proc)
        assert counts["argvs"] >= 1 and counts["scans"] == 0 and counts["calls"] == 0, counts
        # a command line is a list of strings led by a subcommand
        lines = [case for case in named(proc) if isinstance(case, list) and case[0] in SUBCOMMANDS]
        assert len(lines) == counts["argvs"] and all(isinstance(arg, str) for case in lines for arg in case)

    def test_a_wrong_last_dottie_digit_fails_and_names_its_call(self, tmp_path):
        proc = run_injected(tmp_path, "iteration.py", LAST_DIGIT_OFF)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        counts = differing(proc)
        assert counts["calls"] >= 1 and counts["scans"] == 0, counts
        calls = [case for case in named(proc) if isinstance(case, list) and case[0] == "dottie_digits"]
        assert calls and all(len(case) == 2 and type(case[1]) is int for case in calls), named(proc)
