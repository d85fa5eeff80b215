import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import random
import re
import stat
import struct
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trigiter
from trigiter import (
    MANDELBROT, MAX_GRID, TrigKind, dottie, dottie_digits, iterate, scan_raw, sin_envelope,
)
from trigiter.cli import _fmt, _parse_region, main

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_scan_5x5.txt"
# SHA-256 of `trigiter legacy -2.5 -2.5 2.5 2.5 1000 cos` and of `... sin`
HEADLINE_SHA256 = {
    "cos": "9b8a595276e22bcdcfcb0db0b45b7a14048c2e623b9d3aebc5b16f169281e759",
    "sin": "91f7486522d05069dd5fa62513224fde902bc93c79f1f36d46b22bce5daa6dec",
}


def run_cli(capsys, args):
    """Invoke main() and return (exit_code, stdout, stderr)."""
    try:
        code = main(args)
    except SystemExit as exc:  # argparse-level usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLegacyGolden:
    def test_matches_golden_file(self, capsys):
        code, out, err = run_cli(capsys, ["legacy", "-2.5", "-2.5", "2.5", "2.5", "5", "cos"])
        assert code == 0
        assert err == ""
        assert out == GOLDEN.read_text()

    def test_column_layout(self, capsys):
        _, out, _ = run_cli(capsys, ["legacy", "-2.5", "-2.5", "2.5", "2.5", "5", "cos"])
        lines = out.splitlines()
        assert lines
        for line in lines:
            assert len(line) == 51
            left, right = line[:25], line[26:]
            assert left == "%25s" % left.strip()
            assert right == "%25s" % right.strip()

    def test_sixteen_significant_digits_in_output(self, capsys):
        _, out, _ = run_cli(capsys, ["legacy", "0", "0", "1", "1", "4", "cos"])
        assert "0.3333333333333333" in out


    def test_headline_scan_digest(self, capsys):
        code, out, _ = run_cli(capsys, ["legacy", "-2.5", "-2.5", "2.5", "2.5", "1000", "cos"])
        assert code == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == HEADLINE_SHA256["cos"]

    def test_headline_sin_scan_digest(self, capsys):
        code, out, _ = run_cli(capsys, ["legacy", "-2.5", "-2.5", "2.5", "2.5", "1000", "sin"])
        assert code == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == HEADLINE_SHA256["sin"]


class TestLegacyQuirks:
    @pytest.mark.parametrize("args", [[], ["1", "2", "3"], ["--help"]])
    def test_too_few_arguments_prints_usage_and_succeeds(self, capsys, args):
        code, out, err = run_cli(capsys, ["legacy", *args])
        assert code == 0
        assert out == "Usage: trigiter legacy x1 y1 x2 y2 grid cos|sin\n"
        assert err == ""

    @pytest.mark.parametrize("raw", ["1", "1x", "abc", "-3", "0"])
    def test_grid_error_echoes_raw_argument(self, capsys, raw):
        code, out, err = run_cli(capsys, ["legacy", "0", "0", "1", "1", raw, "cos"])
        assert code == 1
        assert out == ""
        assert err == f"Grid ({raw}) must be >= 2\n"

    def test_type_error_names_the_argument(self, capsys):
        code, out, err = run_cli(capsys, ["legacy", "0", "0", "1", "1", "5", "tan"])
        assert code == 1
        assert err == "Type sin or cos but not tan\n"

    def test_numeric_prefix_parsing(self, capsys):
        # C-style atof: garbage parses as 0, trailing junk is dropped
        _, garbage, _ = run_cli(capsys, ["legacy", "abc", "0", "1", "1", "3", "cos"])
        _, zero, _ = run_cli(capsys, ["legacy", "0", "0", "1", "1", "3", "cos"])
        assert garbage == zero
        _, suffixed, _ = run_cli(capsys, ["legacy", "0.5z9", "0", "1", "1", "3", "cos"])
        _, clean, _ = run_cli(capsys, ["legacy", "0.5", "0", "1", "1", "3", "cos"])
        assert suffixed == clean

    def test_grid_accepts_numeric_prefix(self, capsys):
        _, suffixed, _ = run_cli(capsys, ["legacy", "0", "0", "1", "1", "5x", "cos"])
        _, clean, _ = run_cli(capsys, ["legacy", "0", "0", "1", "1", "5", "cos"])
        assert suffixed == clean

    @pytest.mark.parametrize("raw", [str(MAX_GRID + 1), "99999999999999", "5000x"])
    def test_grid_over_cap_is_refused_before_scanning(self, capsys, monkeypatch, raw):
        import trigiter.cli as cli

        monkeypatch.setattr(cli, "scan_raw", None)  # a scan would end in exit 2
        code, out, err = run_cli(capsys, ["legacy", "0", "0", "1", "1", raw, "cos"])
        assert code == 1
        assert out == ""
        assert err == f"Grid ({raw}) must be <= {MAX_GRID}\n"


class TestDottieCommand:
    def test_default_output(self, capsys):
        code, out, _ = run_cli(capsys, ["dottie"])
        assert code == 0
        assert out == (
            "0.739085133215\n"
            "method: fixed-point\n"
            "iterations: 70\n"
            "residual: 6.493694e-13\n"
            "value: 0.7390851332147726\n"
        )

    def test_newton_output(self, capsys):
        code, out, _ = run_cli(capsys, ["dottie", "--method", "newton"])
        assert code == 0
        assert out == (
            "0.739085133215\n"
            "method: newton\n"
            "iterations: 4\n"
            "residual: 0.000000e+00\n"
            "value: 0.7390851332151607\n"
        )

    def test_first_line_tracks_tolerance(self, capsys):
        _, out, _ = run_cli(capsys, ["dottie", "--tol", "1e-2"])
        expected = dottie(1e-2).value
        assert out.splitlines()[0] == f"{expected:.2f}"

    def test_digits_mode(self, capsys):
        code, out, _ = run_cli(capsys, ["dottie", "--digits", "64"])
        assert code == 0
        assert out == dottie_digits(64) + "\n"
        assert out.startswith("0.739085133215160641655312087673873404013411758900757464965680")

    def test_digits_validation(self, capsys):
        code, out, err = run_cli(capsys, ["dottie", "--digits", "65"])
        assert code == 1
        assert "64" in err


class TestComputeCommands:
    def test_iterate_real(self, capsys):
        assert run_cli(capsys, ["iterate", "--f", "cos", "--n", "1", "--v", "0"]) == (
            0,
            "1\n",
            "",
        )
        assert run_cli(capsys, ["iterate", "--f", "cos", "--n", "0", "--v", "0.25"]) == (
            0,
            "0.25\n",
            "",
        )

    def test_iterate_complex(self, capsys):
        code, out, _ = run_cli(capsys, ["iterate", "--f", "cos", "--n", "1", "--v", "1+2j"])
        assert code == 0
        assert out == "2.0327230070196656-3.0518977991518j\n"

    def test_iterate_negative_complex_value(self, capsys):
        # a leading dash in the value must not be mistaken for a flag
        code, out, _ = run_cli(capsys, ["iterate", "--f", "cos", "--n", "1", "--v", "-1+2j"])
        assert code == 0
        assert out == "2.0327230070196656+3.0518977991518j\n"

    def test_derivative_signed_zero(self, capsys):
        code, out, _ = run_cli(capsys, ["derivative", "--f", "cos", "--n", "1", "--x", "0"])
        assert code == 0
        assert out == "-0\n"

    @pytest.mark.parametrize("check", [[], ["--check"]], ids=["plain", "check"])
    def test_derivative_at_a_negative_exponent_value(self, capsys, check):
        base = ["derivative", "--f", "cos", "--n", "2", "--x"]
        got = run_cli(capsys, [*base, "-1e-3", *check])
        assert got == run_cli(capsys, [*base, "-0.001", *check])
        assert got[0] == 0 and got[1].startswith("-0.000841470574411")

    def test_derivative_check_lines(self, capsys):
        code, out, _ = run_cli(
            capsys, ["derivative", "--f", "cos", "--n", "3", "--x", "0.5", "--check"]
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[0] == "-0.21993697983972604"
        assert lines[1].startswith("finite-difference: ")
        assert lines[2].startswith("difference: ")
        assert float(lines[2].split(": ")[1]) < 1e-9

    def test_series_line(self, capsys):
        code, out, _ = run_cli(
            capsys, ["series", "--f", "cos", "--order", "2", "--terms", "8"]
        )
        assert code == 0
        assert out == (
            "c0=0.5403023058681398 c1=0 c2=0.42073549240394825 c3=0"
            " c4=-0.10259907926717984 c5=0 c6=-0.005105637776789517 c7=0"
            " c8=0.00492460646506231\n"
        )

    def test_bounds_lines(self, capsys):
        assert run_cli(capsys, ["bounds", "--f", "cos", "--n", "2"])[1] == (
            "lower=0.5403023058681398 upper=1\n"
        )
        assert run_cli(capsys, ["bounds", "--f", "cos", "--n", "1"])[1] == (
            "lower=-1 upper=1\n"
        )
        assert run_cli(capsys, ["bounds", "--f", "sin", "--n", "2"])[1] == (
            "lower=-0.8414709848078965 upper=0.8414709848078965\n"
        )

    @pytest.mark.parametrize("n", range(1, 41))
    def test_sin_bounds_are_the_range_over_the_reals(self, capsys, n):
        # sin^n attains its range at pi/2 and keeps every real start inside it
        _, out, _ = run_cli(capsys, ["bounds", "--f", "sin", "--n", str(n)])
        lower, upper = (part.split("=")[1] for part in out.split())
        assert lower == "-" + upper
        # the printed ends parse back to the computed envelope
        assert float(upper) == (1.0 if n == 1 else sin_envelope(n - 1))
        # both commands print the shortest text that parses back to the double
        peak = run_cli(capsys, ["iterate", "--f", "sin", "--n", str(n), "--v", repr(math.pi / 2)])[1]
        assert peak == upper + "\n"
        rng = random.Random(n)
        for _ in range(200):
            assert abs(iterate(TrigKind.SINE, n, rng.uniform(-10.0, 10.0))) <= float(upper) + 1e-16

    def test_extrema_lines(self, capsys):
        _, out, _ = run_cli(capsys, ["extrema", "--f", "sin", "--n", "2"])
        assert out == "-1.5707963267948966\n1.5707963267948966\n"
        _, out, _ = run_cli(capsys, ["extrema", "--f", "cos", "--n", "1", "--periods", "2"])
        assert out == "-3.141592653589793\n0\n3.141592653589793\n"


@pytest.mark.parametrize(
    "x, text",
    [
        (0.0, "0"), (-0.0, "-0"), (math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"),
        (5e-324, "5e-324"), (1e16, "1e+16"), (2.0**-1017, "7.1202363472230444e-307"),
    ],
    ids=repr,
)
def test_shortest_text_edges(x, text):
    assert _fmt(x) == text


def shortest_by_search(x):
    """The shortest text as found by trying every precision from one digit up."""
    for precision in range(1, 18):
        s = "%.*g" % (precision, x)
        if float(s) == x:
            return s
    return "%.16g" % x


def repr_digits(x):
    return len(repr(x).partition("e")[0].replace(".", "").lstrip("-").strip("0"))


def test_shortest_text_equals_the_search_from_one_digit():
    # _fmt starts at repr's digit count; every power of two and both its
    # neighbours (where the spacing of doubles changes), the ends of the
    # subnormal and normal ranges, zeros, infinities, nan and random bit
    # patterns, each with both signs
    powers = [math.ldexp(1.0, e) for e in range(-1074, 1024)]
    values = [0.0, math.inf, math.nan, 2.225073858507201e-308, 2.2250738585072014e-308, sys.float_info.max]
    values += powers + [math.nextafter(p, 0.0) for p in powers] + [math.nextafter(p, math.inf) for p in powers]
    rng = random.Random(32)
    values += [struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0] for _ in range(20_000)]
    values += [-v for v in values]
    assert [v for v in values if _fmt(v) != shortest_by_search(v)] == []
    # the sweep meets the case where repr's digit count is one short: %g
    # rounds those digits of 46 powers of two to a double other than x
    short = [p for p in powers if float("%.*g" % (repr_digits(p), p)) != p]
    assert len(short) == 46
    assert all(len(_fmt(p).partition("e")[0].replace(".", "")) == repr_digits(p) + 1 for p in short)


def printed(argv):
    """Exit code and stdout of one in-process run of main()."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


# finite corners, signed zeros and subnormals among them
CORNER = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.5, 2.5)
)
ASCENDING = st.tuples(CORNER, CORNER).filter(lambda ends: ends[0] < ends[1])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(("cos", "sin")), grid=st.integers(2, 40), xs=ASCENDING, ys=ASCENDING)
def test_legacy_and_julia_print_the_same_bytes(kind, grid, xs, ys):
    # both reach one scan path; only their parsing differs
    (x1, x2), (y1, y2) = xs, ys
    legacy = printed(["legacy", repr(x1), repr(y1), repr(x2), repr(y2), str(grid), kind])
    julia = printed(["julia", "--f", kind, "--grid", str(grid), f"--region={x1!r},{y1!r},{x2!r},{y2!r}"])
    assert legacy[0] == 0
    assert legacy == julia


class TestScanCommands:
    def test_julia_defaults_match_legacy_region(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["julia", "--f", "cos", "--region", "-2.5,-2.5,2.5,2.5", "--grid", "5"],
        )
        assert code == 0
        assert out == GOLDEN.read_text()

    def test_region_is_normalized(self, capsys):
        _, reversed_out, _ = run_cli(
            capsys,
            ["julia", "--f", "cos", "--region", "2.5,2.5,-2.5,-2.5", "--grid", "5"],
        )
        assert reversed_out == GOLDEN.read_text()

    # SHA-256 of the grid-9 output over each ascending region, as printed
    # when the corners were still sorted by the library: the -0.0 corners
    # print as -0 in the first line, the first sample keeping its sign.
    # (A reversed julia region without -0.0 is test_region_is_normalized.)
    ASCENDING_SHA256 = {
        ("julia", "-0.0,-1,1,0"): "3cd154733ed26a20ed668bce1521239a65f812adbcae7f1040338a40a33f3932",
        ("julia", "-1,-0.0,1,1"): "064d8adede8c4c16ec4e7ff893a812e7c9aeb661dbf0591f7f46cf7d552fff74",
        ("mandelbrot", "-2,-1.5,1,1.5"): "24fae8bad947016f1ff1893727ad88f59809b30cc738b7cba6c970431404f228",
        ("mandelbrot", "-0.0,-1,1,0"): "5d71907b2b558135c60bbaf6c2be6953a9a80ebfe56489d100fd2f6fcb30e583",
        ("mandelbrot", "-1,-0.0,1,1"): "587a147cee1068200300304d2cf4898b8b9d1c40044dedcbad720fd494f97bac",
    }
    # the same rectangles with their corners in every other order
    OTHER_ORDERS = {
        "-2,-1.5,1,1.5": ["1,1.5,-2,-1.5", "1,-1.5,-2,1.5", "-2,1.5,1,-1.5"],
        "-0.0,-1,1,0": ["1,0,-0.0,-1", "1,-1,-0.0,0", "-0.0,0,1,-1"],
        "-1,-0.0,1,1": ["1,1,-1,-0.0", "1,-0.0,-1,1", "-1,1,1,-0.0"],
    }

    @pytest.mark.parametrize("command, ascending", list(ASCENDING_SHA256))
    def test_corner_order_leaves_the_bytes(self, capsys, command, ascending):
        argv = ["julia", "--f", "cos"] if command == "julia" else ["mandelbrot"]
        outputs = [
            run_cli(capsys, [*argv, f"--region={region}", "--grid", "9"])
            for region in [ascending, *self.OTHER_ORDERS[ascending]]
        ]
        code, out, err = outputs[0]
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == self.ASCENDING_SHA256[command, ascending]
        assert all(other == outputs[0] for other in outputs[1:])

    def test_region_is_sorted_where_it_is_parsed(self):
        assert _parse_region("2.5,2.5,-2.5,-2.5") == (-2.5, -2.5, 2.5, 2.5)
        assert _parse_region("1,-1.5,-2,1.5") == (-2.0, -1.5, 1.0, 1.5)
        # of two equal ends, both sides take the one given first, with its sign
        signs = [math.copysign(1.0, v) for v in _parse_region("-0.0,0,0,-0.0")]
        assert signs == [-1.0, 1.0, -1.0, 1.0]
        signs = [math.copysign(1.0, v) for v in _parse_region("0,-0.0,-0.0,0")]
        assert signs == [1.0, -1.0, 1.0, -1.0]

    def test_plain_format(self, capsys):
        _, out, _ = run_cli(
            capsys,
            [
                "julia", "--f", "cos", "--region", "-2.5,-2.5,2.5,2.5",
                "--grid", "5", "--format", "plain",
            ],
        )
        # same survivors as the golden run, collapsed to single spaces
        golden_first = GOLDEN.read_text().splitlines()[0].split()
        assert out.splitlines()[0] == " ".join(golden_first)
        assert "  " not in out

    def test_workers_do_not_change_output(self, capsys):
        outputs = []
        for w in ("1", "2", "8"):
            _, out, _ = run_cli(
                capsys,
                [
                    "julia", "--f", "sin", "--region", "-2.5,-2.5,2.5,2.5",
                    "--grid", "17", "--workers", w,
                ],
            )
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_mandelbrot_matches_library(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["mandelbrot", "--region", "-2,-1.5,1,1.5", "--grid", "7", "--format", "plain"],
        )
        assert code == 0
        from trigiter import format_points

        expected = scan_raw(-2, -1.5, 1, 1.5, 7, MANDELBROT)
        assert out == format_points(expected, padded=False)

    def test_one_parser_serves_successive_commands(self, capsys):
        import trigiter.cli as cli
        from trigiter import EscapeParams, format_points

        base = ["mandelbrot", "--region", "-2,-1.5,1,1.5", "--grid", "9", "--threshold", "2", "--iterations", "9"]
        outputs = [run_cli(capsys, [*base, "--early-exit"]), run_cli(capsys, base)]
        for early_exit, (code, out, err) in zip((True, False), outputs):
            expected = scan_raw(-2, -1.5, 1, 1.5, 9, MANDELBROT, EscapeParams(9, 2.0, early_exit))
            assert (code, out, err) == (0, format_points(expected), "")
        assert outputs[0][1] != outputs[1][1]
        code, out, err = run_cli(capsys, [*base, "--grid", "1"])
        assert code == 1 and out == ""
        assert "--grid" in err
        assert cli._build_parser.cache_info().currsize == 1

    def test_legacy_builds_no_parser(self, capsys, monkeypatch):
        import trigiter.cli as cli

        monkeypatch.setattr(cli, "_build_parser", None)  # building it would raise TypeError
        code, out, _ = run_cli(capsys, ["legacy", "-2.5", "-2.5", "2.5", "2.5", "5", "cos"])
        assert code == 0
        assert out == GOLDEN.read_text()

    def test_early_exit_flag_drops_transients(self, capsys):
        base = ["julia", "--f", "cos", "--region", "0,2.9,0,3.1", "--grid", "3"]
        _, normal, _ = run_cli(capsys, base)
        _, early, _ = run_cli(capsys, [*base, "--early-exit"])
        assert len(normal.splitlines()) > len(early.splitlines())

    def test_iterations_and_threshold_flags(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "julia", "--f", "cos", "--region", "-2.5,-2.5,2.5,2.5", "--grid", "5",
                "--iterations", "1", "--threshold", "1e30",
            ],
        )
        assert code == 0
        assert len(out.splitlines()) == 25


class WriteOnlyStream:
    """stdout stand-in with nothing but write and flush; keeps each write."""

    __slots__ = ("chunks",)

    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)
        return len(text)

    def flush(self):
        pass


class TestStreamedOutput:
    SCANS = {
        "legacy": (["legacy", "-2.5", "-2.5", "2.5", "2.5", "300", "sin"], 300),
        "julia": (["julia", "--f", "cos", "--grid", "300", "--format", "plain"], 300),
        "mandelbrot": (["mandelbrot", "--region", "-2,-1.5,1,1.5", "--grid", "400"], 400),
    }

    @pytest.mark.parametrize("argv, grid", SCANS.values(), ids=SCANS.keys())
    def test_write_only_stdout_gets_the_same_bytes_in_blocks(self, capsys, monkeypatch, argv, grid):
        from trigiter import _kernels

        _, expected, _ = run_cli(capsys, argv)
        stream = WriteOnlyStream()
        monkeypatch.setattr(sys, "stdout", stream)
        assert main(argv) == 0
        assert "".join(stream.chunks) == expected
        # one write per block of whole rows, never the whole output at once
        assert len(stream.chunks) == -(-grid // _kernels._tile_rows(grid))
        assert max(map(len, stream.chunks)) <= 52 * grid * _kernels._tile_rows(grid)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB on Linux")
    def test_headline_scan_peak_memory(self):
        # The wrapper's RUSAGE_CHILDREN sees only the scan it runs.
        src = pathlib.Path(trigiter.__file__).resolve().parents[1]
        wrapper = (
            "import os, resource, subprocess, sys\n"
            "argv = ['legacy', '-2.5', '-2.5', '2.5', '2.5', '1000', 'cos']\n"
            "with open(os.devnull, 'w') as null:\n"
            "    subprocess.run([sys.executable, '-m', 'trigiter', *argv], stdout=null, check=True)\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        )
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", wrapper],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        peak_mib = int(proc.stdout) / 1024
        assert peak_mib < 80, f"grid 1000 scan peaked at {peak_mib:.1f} MiB"


class TestBenchmarkPatchPoints:
    """The module attributes that trigbench/tracing.py wraps, called the way it reads them.

    The tracer counts survivors with len() of what `cli.scan_raw`
    returns, lines with len() of the first argument of
    `cli.format_points`, and cell-steps from the sixth positional
    argument of `_kernels.survive`, which a cos or sin scan calls once
    per worker; it times `fractal._cumulative_axis`.
    """

    SCANS = {
        "julia": (["julia", "--f", "sin", "--grid", "40", "--iterations", "30"], 40, 30),
        "mandelbrot": (["mandelbrot", "--grid", "50", "--iterations", "40", "--early-exit"], 50, 40),
        "legacy": (["legacy", "-2.5", "-2.5", "2.5", "2.5", "30", "cos"], 30, 50),
    }

    @pytest.mark.parametrize("argv, grid, iterations", SCANS.values(), ids=SCANS.keys())
    def test_hooks_see_what_the_tracer_reads(self, capsys, monkeypatch, argv, grid, iterations):
        import trigiter.cli as cli
        from trigiter import _kernels, fractal

        calls = {}

        def record(module, attr):
            original = getattr(module, attr)
            seen = calls[attr] = []

            def recorder(*args, **kwargs):
                result = original(*args, **kwargs)
                seen.append((args, result))
                return result

            monkeypatch.setattr(module, attr, recorder)

        for module, attr in (
            (cli, "scan_raw"), (cli, "format_points"), (fractal, "_cumulative_axis"), (_kernels, "survive"),
        ):
            record(module, attr)
        # 7-row tiles and blocks: several blocks per scan, and a pool for cos and
        # sin wherever two CPUs are usable; a Mandelbrot scan is one kernel call
        # over the whole grid
        monkeypatch.setattr(_kernels, "_TILE_CELLS", 7 * grid)
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out
        assert all(calls.values()), {attr: len(seen) for attr, seen in calls.items()}
        assert len(calls["format_points"]) > 1
        if argv[0] == "mandelbrot":
            [(args, _)] = calls["survive"]
            assert len(args[0]) == len(args[1]) == grid
        else:
            # one kernel call per worker, each on an interleaved set of rows
            workers = min(fractal._usable_cpus(), -(-grid // 7))
            assert len(calls["survive"]) == workers
            assert sum(len(args[0]) for args, _ in calls["survive"]) == grid
            assert all(len(args[1]) == grid for args, _ in calls["survive"])
        assert [args[5] for args, _ in calls["survive"]] == [iterations] * len(calls["survive"])
        for (block, *_), text in calls["format_points"]:
            assert len(block) == text.count("\n")
        [(_, result)] = calls["scan_raw"]
        assert len(result) == out.count("\n")
        assert "".join(text for _, text in calls["format_points"]) == out


class TestExitCodes:
    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, ["nosuch"])
        assert code == 1
        assert "invalid choice" in err

    def test_no_command(self, capsys):
        code, _, err = run_cli(capsys, [])
        assert code == 1
        assert "usage:" in err

    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(capsys, ["iterate", "--f", "cos"])
        assert code == 1
        assert "--n" in err

    def test_domain_error(self, capsys):
        code, _, err = run_cli(capsys, ["iterate", "--f", "cos", "--n", "-1"])
        assert code == 1
        assert "non-negative" in err

    def test_solver_failure(self, capsys):
        code, _, err = run_cli(capsys, ["dottie", "--max-iterations", "5"])
        assert code == 1
        assert "best residual" in err

    def test_bad_region(self, capsys):
        code, _, err = run_cli(capsys, ["julia", "--f", "cos", "--region", "1,2,3"])
        assert code == 1
        assert "x1,y1,x2,y2" in err

    @pytest.mark.parametrize("region", ["nan,0,1,1", "0,0,inf,1", "0,nan,1,1", "0,0,1,-inf"])
    @pytest.mark.parametrize(
        "command", [["julia", "--f", "cos"], ["mandelbrot"]], ids=["julia", "mandelbrot"]
    )
    def test_non_finite_region(self, capsys, command, region):
        code, out, err = run_cli(capsys, [*command, f"--region={region}"])
        assert code == 1
        assert out == ""
        assert "--region" in err

    @pytest.mark.parametrize(
        "command", [["julia", "--f", "cos"], ["mandelbrot"]], ids=["julia", "mandelbrot"]
    )
    @pytest.mark.parametrize("grid", ["1", str(MAX_GRID + 1), "99999999999999"])
    def test_grid_outside_its_range(self, capsys, monkeypatch, command, grid):
        import trigiter.cli as cli

        monkeypatch.setattr(cli, "scan_raw", None)  # a scan would end in exit 2
        code, out, err = run_cli(capsys, [*command, "--grid", grid])
        assert code == 1
        assert out == ""
        assert "--grid" in err and str(MAX_GRID) in err

    def test_bad_tolerance(self, capsys):
        code, _, err = run_cli(capsys, ["dottie", "--tol", "0"])
        assert code == 1
        assert "tolerance" in err

    def test_negative_tolerance_in_exponent_form(self, capsys):
        code, out, err = run_cli(capsys, ["dottie", "--tol", "-1e-3"])
        assert code == 1
        assert out == ""
        assert "argument --tol" in err and "must be positive" in err

    def test_internal_error_in_subcommand(self, capsys, monkeypatch):
        import trigiter.cli as cli

        def boom(*args, **kwargs):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(cli, "scan_raw", boom)
        code, _, err = run_cli(capsys, ["julia", "--f", "cos", "--grid", "5"])
        assert code == 2
        assert err == "internal error: disk on fire\n"

    def test_a_closed_pipe_is_not_an_error(self, capsys, monkeypatch):
        import trigiter.cli as cli

        def closed(*args, **kwargs):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(cli, "format_points", closed)
        code, out, err = run_cli(capsys, ["julia", "--f", "cos", "--grid", "5"])
        assert (code, out, err) == (0, "", "")

    def test_main_leaves_a_closed_pipe_to_its_caller(self, capsys, monkeypatch):
        # in process, stdout on a real pipe whose reader has gone: main
        # returns 0 and does not point the caller's descriptor elsewhere
        read, write = os.pipe()
        os.close(read)
        stream = open(write, "w")
        monkeypatch.setattr(sys, "stdout", stream)
        try:
            assert main(["legacy", "-2.5", "-2.5", "2.5", "2.5", "300", "cos"]) == 0
            assert stat.S_ISFIFO(os.fstat(write).st_mode)
        finally:
            with contextlib.suppress(BrokenPipeError):
                stream.close()  # closes the descriptor although the flush fails
        assert capsys.readouterr().err == ""

    def test_internal_error_in_legacy(self, capsys, monkeypatch):
        import trigiter.cli as cli

        def boom(*args, **kwargs):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(cli, "scan_raw", boom)
        code, _, err = run_cli(capsys, ["legacy", "0", "0", "1", "1", "5", "cos"])
        assert code == 2
        assert err == "internal error: disk on fire\n"


def tree_env():
    """The environment with this tree's ``src`` first on the path."""
    src = pathlib.Path(trigiter.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


class TestEntryPoints:
    @staticmethod
    def run_python(code, *args):
        """Run `code` in a fresh interpreter with this tree's ``src`` first on the path."""
        return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=tree_env())

    def test_cli_import_leaves_mpmath_unloaded(self):
        proc = self.run_python(
            "import sys\n"
            "import trigiter.cli\n"
            "assert 'mpmath' not in sys.modules, 'importing trigiter.cli imported mpmath'\n"
            "assert 'decimal' not in sys.modules, 'importing trigiter.cli imported decimal'\n"
            "trigiter.cli.main(['dottie', '--digits', '20'])\n"
            "assert 'mpmath' in sys.modules\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0.73908513321516064166\n"

    # the modules that import numpy, and what each command line loads of them
    NUMPY_MODULES = ["numpy", "trigiter.fractal", "trigiter._kernels", "trigiter.series"]
    COMMANDS_AND_MODULES = [
        (["dottie"], []),
        (["iterate", "--f", "cos", "--n", "3", "--v", "0.5+1j"], []),
        (["derivative", "--f", "sin", "--n", "2", "--x", "0.5", "--check"], []),
        (["bounds", "--f", "cos", "--n", "4"], []),
        (["extrema", "--f", "sin", "--n", "2", "--periods", "2"], []),
        (["series", "--f", "cos", "--order", "3", "--terms", "8"], ["numpy", "trigiter.series"]),
        (["legacy", "-2.5", "-2.5", "2.5", "2.5", "9", "sin"], NUMPY_MODULES),
        (["mandelbrot", "--grid", "7", "--early-exit"], NUMPY_MODULES),
    ]

    def test_numpy_loads_only_for_scans_and_series(self, capsys):
        # one fresh process imports the package, then the command line,
        # then runs each command in turn, noting what is loaded after each
        proc = self.run_python(
            "import contextlib, io, json, sys\n"
            "def loaded():\n"
            f"    return [name for name in {self.NUMPY_MODULES!r} if name in sys.modules]\n"
            "import trigiter\n"
            "steps = [loaded()]\n"
            "import trigiter.cli\n"
            "steps.append(loaded())\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        code = trigiter.cli.main(argv)\n"
            "    steps.append([code, out.getvalue(), loaded()])\n"
            "print(json.dumps(steps))\n",
            json.dumps([argv for argv, _ in self.COMMANDS_AND_MODULES]),
        )
        assert proc.returncode == 0, proc.stderr
        after_package, after_cli, *runs = json.loads(proc.stdout)
        assert after_package == after_cli == []
        for (argv, modules), (code, out, now_loaded) in zip(self.COMMANDS_AND_MODULES, runs):
            assert now_loaded == modules, argv
            # the same bytes as in this process, where every module is loaded
            assert [code, out] == list(run_cli(capsys, argv)[:2]), argv

    # modules a numpy-free command line must not add to a bare interpreter's
    HEAVY_MODULES = ["numpy", "dataclasses", "inspect", "typing"]

    def test_scalar_command_lines_load_no_numpy_dataclasses_inspect_or_typing(self):
        # the modules loaded before the first statement are a bare
        # interpreter's (`python -c pass`): a site .pth file may load typing
        proc = self.run_python(
            "import sys\n"
            f"watched = [name for name in {self.HEAVY_MODULES!r} if name not in sys.modules]\n"
            "import contextlib, io, json\n"
            "def loaded():\n"
            "    return [name for name in watched if name in sys.modules]\n"
            "import trigiter\n"
            "steps = [loaded()]\n"
            "import trigiter.cli\n"
            "steps.append(loaded())\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert trigiter.cli.main(argv) == 0, argv\n"
            "    steps.append(loaded())\n"
            "from trigiter import MANDELBROT, MAX_GRID\n"
            "steps.append(loaded())\n"
            "print(json.dumps([watched, steps]))\n",
            json.dumps([argv for argv, modules in self.COMMANDS_AND_MODULES if not modules]),
        )
        assert proc.returncode == 0, proc.stderr
        watched, steps = json.loads(proc.stdout)
        assert {"numpy", "dataclasses", "inspect"} <= set(watched)
        assert len(steps) == 2 + 5 + 1
        assert steps == [[]] * len(steps)

    def test_lazy_names_are_those_of_their_modules(self):
        from trigiter import fractal, iteration, series

        # MANDELBROT and MAX_GRID are iteration's, bound when the package loads
        eager = ["MANDELBROT", "MAX_GRID"]
        assert trigiter._FRACTAL == [name for name in fractal.__all__ if name not in eager]
        assert trigiter._SERIES == series.__all__
        assert all(getattr(trigiter, name) is getattr(fractal, name) is getattr(iteration, name) for name in eager)
        assert len(trigiter.__all__) == len(set(trigiter.__all__)) == 30
        start = trigiter.__all__.index("MANDELBROT")
        assert trigiter.__all__[start:start + len(fractal.__all__)] == fractal.__all__

    def test_star_import_binds_every_public_name(self):
        proc = self.run_python(
            "namespace = {}\n"
            "exec('from trigiter import *', namespace)\n"
            "import trigiter\n"
            "names = sorted(set(namespace) - {'__builtins__'})\n"
            "assert names == sorted(trigiter.__all__) and len(names) == 30, names\n"
            "assert all(namespace[name] is getattr(trigiter, name) for name in names)\n"
            "from trigiter import fractal, series\n"
            "assert namespace['scan_raw'] is fractal.scan_raw and namespace['compose'] is series.compose\n"
        )
        assert proc.returncode == 0, proc.stderr

    def test_threads_reading_a_lazy_name_at_once_get_one_function(self):
        proc = self.run_python(
            "import sys, threading\n"
            "import trigiter\n"
            "sys.setswitchinterval(1e-6)\n"
            "start = threading.Barrier(4)\n"
            "seen = []\n"
            "def read():\n"
            "    start.wait()\n"
            "    seen.append(trigiter.scan_raw)\n"
            "threads = [threading.Thread(target=read) for _ in range(4)]\n"
            "for thread in threads:\n"
            "    thread.start()\n"
            "for thread in threads:\n"
            "    thread.join(60)\n"
            "assert not any(thread.is_alive() for thread in threads)\n"
            "from trigiter.fractal import scan_raw\n"
            "assert len(seen) == 4 and all(f is scan_raw for f in seen), seen\n"
        )
        assert proc.returncode == 0, proc.stderr

    def test_a_patch_set_before_the_first_scan_is_kept(self):
        # set before anything has read cli.scan_raw, so before fractal is loaded
        proc = self.run_python(
            "import trigiter.cli as cli\n"
            "calls = []\n"
            "def traced(*args, **kwargs):\n"
            "    from trigiter.fractal import scan_raw\n"
            "    calls.append(args)\n"
            "    return scan_raw(*args, **kwargs)\n"
            "cli.scan_raw = traced\n"
            "assert cli.main(['legacy', '0', '0', '1', '1', '3', 'cos']) == 0\n"
            "assert cli.main(['julia', '--f', 'sin', '--grid', '3']) == 0\n"
            "assert len(calls) == 2 and cli.scan_raw is traced\n"
        )
        assert proc.returncode == 0, proc.stderr

    @staticmethod
    def command(entry, argv):
        """The `trigiter` command line through `python -m` or the console script, and its environment.

        stdout is block-buffered, as a shell leaves it for a pipe.
        """
        launch = ["-m", "trigiter"] if entry == "module" else ["-c", TestEntryPoints.console_launcher()]
        env = {k: v for k, v in tree_env().items() if k != "PYTHONUNBUFFERED"}
        return [sys.executable, *launch, *argv], env

    @pytest.mark.parametrize("entry", ["module", "console-script"])
    @pytest.mark.parametrize(
        "argv",
        [["legacy", "-2.5", "-2.5", "2.5", "2.5", "300", "cos"], ["mandelbrot", "--grid", "400"]],
        ids=["legacy", "mandelbrot"],
    )
    def test_a_reader_that_closes_early_is_not_an_error(self, argv, entry):
        # megabytes of output, far beyond a pipe's buffer: the command is
        # still writing when the reader closes after one line, as `| head -1` does
        command, env = self.command(entry, argv)
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 0
        assert err == b""
        assert first.endswith(b"\n")

    @pytest.mark.parametrize("entry", ["module", "console-script"])
    @pytest.mark.parametrize("argv", [["legacy"], ["dottie"]], ids=["usage", "dottie"])
    def test_a_reader_gone_before_the_exit_flush_is_not_an_error(self, argv, entry):
        # the short output is still buffered when main returns, so only
        # the flush at exit meets the closed pipe
        read, write = os.pipe()
        os.close(read)
        command, env = self.command(entry, argv)
        try:
            proc = subprocess.run(command, stdout=write, stderr=subprocess.PIPE, env=env)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (0, b"")

    def test_module_invocation_matches_golden(self):
        proc = subprocess.run(
            [sys.executable, "-m", "trigiter", "legacy", "-2.5", "-2.5", "2.5", "2.5", "5", "cos"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == GOLDEN.read_text()

    @staticmethod
    def console_launcher():
        """Code that runs the ``trigiter`` console script declared by the tree under test.

        The target comes from ``[project.scripts]`` of the ``pyproject.toml``
        beside the imported package, and is loaded and called the way an
        installer's launcher does.
        """
        tomllib = pytest.importorskip("tomllib")
        src = pathlib.Path(trigiter.__file__).resolve().parents[1]
        pyproject = tomllib.loads((src.parent / "pyproject.toml").read_text())
        target = pyproject["project"]["scripts"]["trigiter"]
        return (
            "import sys\n"
            "from importlib.metadata import EntryPoint\n"
            f"func = EntryPoint('trigiter', {target!r}, 'console_scripts').load()\n"
            "sys.argv[0] = 'trigiter'\n"
            "sys.exit(func())\n"
        )

    @staticmethod
    def run_console_script(args):
        """Run the console script with this tree's ``src`` first on the path."""
        return TestEntryPoints.run_python(TestEntryPoints.console_launcher(), *args)

    def test_console_script_exists_and_runs(self):
        proc = self.run_console_script(["legacy"])
        assert proc.returncode == 0
        assert proc.stdout == "Usage: trigiter legacy x1 y1 x2 y2 grid cos|sin\n"

    def test_console_script_help(self):
        proc = self.run_console_script(["--help"])
        assert proc.returncode == 0
        # argparse lists the subcommands as {dottie,iterate,...}; compare
        # whole names, so that a renamed subcommand cannot match a substring
        listed = re.search(r"\{([\w,-]+)\}", proc.stdout)
        assert listed, proc.stdout
        choices = listed.group(1).split(",")
        for name in ("dottie", "iterate", "derivative", "series", "bounds",
                     "extrema", "julia", "mandelbrot", "legacy"):
            assert name in choices
