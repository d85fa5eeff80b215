"""Every command-line input gives a result or an exit-1 message naming its flag.

Count flags are bounded where they are parsed, and value flags must be
finite.  Plain tests pin the inputs that used to hang, exit 2 or print a
non-finite result; a hypothesis property draws argv for every
subcommand with one flag set to a bad value (negative, zero, far over
its cap, non-finite or malformed) and the others to small valid ones.
"""

import contextlib
import io
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigiter.cli import MAX_PERIODS, MAX_SERIES_ORDER, MAX_STEPS, main
from trigiter.iteration import MAX_DIGITS, MAX_GRID, MAX_ITERATIONS
from trigiter.series import MAX_TRUNCATION

# Wall-clock bound on one in-process run.  Bad values are refused before
# any work starts and valid draws are kept small, so every run takes
# milliseconds; the bound leaves room for a loaded machine.
RUN_SECONDS = 2.0


def run(argv):
    """main(argv) in process: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse-level usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["iterate", "--f", "cos", "--n", "10000000000"], "--n"),
        (["derivative", "--f", "sin", "--n", "10000000000", "--x", "1"], "--n"),
        (["bounds", "--f", "sin", "--n", "10000000000"], "--n"),
        (["series", "--f", "cos", "--order", "100000000", "--terms", "2"], "--order"),
        (["series", "--f", "cos", "--order", "3", "--terms", "171"], "--terms"),
        (["extrema", "--f", "cos", "--n", "2", "--periods", "100000000"], "--periods"),
        (
            ["julia", "--f", "cos", "--grid", "2", "--region", "0,0,0.1,0.1",
             "--iterations", "100000000", "--workers", "1"],
            "--iterations",
        ),
        (["derivative", "--f", "cos", "--n", "2", "--x", "inf"], "--x"),
        (["iterate", "--f", "cos", "--n", "3", "--v", "nan+1j"], "--v"),
    ],
    ids=[
        "iterate-n", "derivative-n", "bounds-n", "series-order", "series-terms",
        "extrema-periods", "julia-iterations", "derivative-x", "iterate-v",
    ],
)
def test_refused_at_parse_naming_the_flag(argv, flag):
    code, out, err, seconds = run(argv)
    assert code == 1
    assert out == ""
    assert f"argument {flag}:" in err
    assert seconds < 1.0


@pytest.mark.parametrize(
    "argv, flag, reason",
    [
        (["derivative", "--f", "cos", "--n", "2", "--x", "-inf"], "--x", "x must be finite"),
        (["derivative", "--f", "cos", "--n", "2", "--x", "-Infinity"], "--x", "x must be finite"),
        (["iterate", "--f", "cos", "--n", "2", "--v", "-nan"], "--v", "start value must be finite"),
        (["iterate", "--f", "cos", "--n", "2", "--v", "-inf+1j"], "--v", "start value must be finite"),
        (["julia", "--f", "cos", "--region", "-inf,0,1,1"], "--region", "x1 must be finite, got -inf"),
            (["mandelbrot", "--region", "0,0,1,1e400"], "--region", "y2 must be finite, got inf"),
            (["mandelbrot", "--region", "a,0,1,1"], "--region", "could not convert string to float: 'a'"),
        (["mandelbrot", "--threshold", "-NaN"], "--threshold", "threshold must be positive and finite"),
        (["iterate", "--f", "tan", "--n", "2"], "--f", "unknown map 'tan'"),
    ],
    ids=["x-inf", "x-Infinity", "v-nan", "v-inf+1j", "region-inf", "region-1e400", "region-a",
         "threshold-NaN", "f-tan"],
)
def test_refused_with_the_flags_own_reason(argv, flag, reason):
    # -inf and -nan after a flag are read as its value, not as an unknown option
    code, out, err, _ = run(argv)
    assert code == 1
    assert out == ""
    assert "expected one argument" not in err
    assert f"argument {flag}: {reason}" in err.strip().splitlines()[-1]


@pytest.mark.parametrize("method", ["fixed-point", "newton"])
def test_too_few_dottie_iterations_name_the_flags(method):
    code, out, err, _ = run(["dottie", "--method", method, "--max-iterations", "1"])
    assert code == 1
    assert out == ""
    assert "--max-iterations" in err and "--tol" in err
    assert "best residual" in err


def test_iterations_cap_shrinks_with_the_grid(monkeypatch):
    import trigiter.cli as cli

    monkeypatch.setattr(cli, "scan_raw", None)  # a scan would end in exit 2
    code, out, err, _ = run(["mandelbrot", "--grid", str(MAX_GRID), "--iterations", "53"])
    assert code == 1
    assert out == ""
    assert "--iterations" in err and "<= 52" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["iterate", "--f", "cos", "--n", str(MAX_STEPS)],
        ["bounds", "--f", "sin", "--n", str(MAX_STEPS)],
        ["series", "--f", "cos", "--order", "3", "--terms", str(MAX_TRUNCATION)],
        ["extrema", "--f", "cos", "--n", "2", "--periods", str(MAX_PERIODS)],
        ["dottie", "--digits", str(MAX_DIGITS)],
    ],
    ids=["iterate-n", "bounds-n", "series-terms", "extrema-periods", "dottie-digits"],
)
def test_caps_are_inclusive(argv):
    code, out, err, _ = run(argv)
    assert code == 0, err
    assert out


def test_series_without_a_tail_estimate_names_its_flags():
    code, out, err, _ = run(["series", "--f", "sin", "--order", "7", "--terms", "8"])
    assert code == 1
    assert out == ""
    assert err.startswith("argument --order: --f sin --order 7 --terms 8 has no tail estimate")
    assert "outer truncation order" not in err


def small_ints(low, high):
    return st.integers(low, high).map(str)


def finite_reals(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False).map(repr)


FUNCTIONS = st.sampled_from(["cos", "sin"])
REGIONS = st.tuples(*[finite_reals(-3.0, 3.0)] * 4).map(",".join)
START_VALUES = finite_reals(-1e308, 1e308) | st.builds(
    lambda re, im: repr(complex(re, im)), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)
)
SCAN_FLAGS = {
    "--region": ("region", REGIONS),
    "--grid": ("count", small_ints(2, 40)),
    "--iterations": ("count", small_ints(0, 60)),
    "--threshold": ("positive", finite_reals(1e-3, 1e30)),
    "--workers": ("workers", small_ints(1, 4)),
    "--format": ("choice", st.sampled_from(["gnuplot", "plain"])),
}

# Per subcommand: flag -> (kind, strategy of small valid values), and the
# flags that must be present.
COMMANDS = {
    "dottie": (
        {
            "--tol": ("positive", finite_reals(1e-300, 1e300)),
            "--method": ("choice", st.sampled_from(["fixed-point", "newton"])),
            "--max-iterations": ("count", small_ints(1, 1000)),
            "--digits": ("count", small_ints(1, MAX_DIGITS)),
        },
        (),
    ),
    "iterate": (
        {
            "--f": ("choice", FUNCTIONS),
            "--n": ("count", small_ints(0, 60)),
            "--v": ("value", START_VALUES),
        },
        ("--f", "--n"),
    ),
    "derivative": (
        {
            "--f": ("choice", FUNCTIONS),
            "--n": ("count", small_ints(0, 60)),
            "--x": ("real", finite_reals(-1e308, 1e308)),
        },
        ("--f", "--n", "--x"),
    ),
    "series": (
        {
            "--f": ("choice", FUNCTIONS),
            # sine iterates from order 7 on have no tail estimate (a known
            # defect of the series bound); they exit 1 naming all three flags
            "--order": ("count", small_ints(0, 12)),
            "--terms": ("count", small_ints(0, 40)),
        },
        ("--f", "--order", "--terms"),
    ),
    "bounds": (
        {"--f": ("choice", FUNCTIONS), "--n": ("count", small_ints(1, 60))},
        ("--f", "--n"),
    ),
    "extrema": (
        {
            "--f": ("choice", FUNCTIONS),
            "--n": ("count", small_ints(1, 60)),
            "--periods": ("count", small_ints(1, 20)),
        },
        ("--f", "--n"),
    ),
    "julia": ({"--f": ("choice", FUNCTIONS), **SCAN_FLAGS}, ("--f",)),
    "mandelbrot": (SCAN_FLAGS, ()),
}



def refused(values):
    """Bad values every flag of the kind must refuse: (text, True)."""
    return values.map(lambda text: (text, True))


def edge(values):
    """Edge values some flags of the kind accept: (text, False)."""
    return values.map(lambda text: (text, False))


HUGE = max(MAX_STEPS, MAX_ITERATIONS, MAX_SERIES_ORDER, MAX_PERIODS) * 1000
NEGATIVE_COUNTS = st.integers(-(10**30), -1).map(str)
OVER_EVERY_CAP = st.integers(HUGE, 10**30).map(str)
NON_INTEGER = st.sampled_from(["inf", "-inf", "nan", "1e999", "1.5", "abc", ""])
NON_FINITE = st.sampled_from(["inf", "-inf", "nan", "1e999", "-1e999", "abc", ""])
NOT_POSITIVE = st.sampled_from(["0", "-0"]) | finite_reals(-1e308, -1e-300)
BAD_VALUES = {
    "count": refused(NEGATIVE_COUNTS | OVER_EVERY_CAP | NON_INTEGER) | edge(st.just("0")),
    # --workers has no upper cap: the pool never exceeds the usable CPUs
    "workers": refused(NEGATIVE_COUNTS | NON_INTEGER | st.just("0")) | edge(OVER_EVERY_CAP),
    "real": refused(NON_FINITE) | edge(NOT_POSITIVE),
    "positive": refused(NON_FINITE | NOT_POSITIVE),
    "value": refused(
        st.sampled_from(["nan+1j", "1+infj", "inf", "-inf", "nan", "1e999", "abc", "1+", ""])
    ),
    "region": refused(
        st.sampled_from(["nan,0,1,1", "0,0,inf,1", "0,-inf,1,1", "1,2,3", "a,b,c,d", ""])
    ),
    "choice": refused(st.sampled_from(["tan", "", "COS"])),
}


@st.composite
def argvs(draw):
    """(argv, flag, must_fail): a small valid argv for one subcommand, but `flag` set to a
    bad value, which every flag of its kind refuses when `must_fail` is true."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    flags, required = COMMANDS[command]
    bad = draw(st.sampled_from(sorted(flags)))
    argv = [command]
    for flag in sorted(flags):
        kind, valid = flags[flag]
        if flag == bad:
            text, must_fail = draw(BAD_VALUES[kind])
            argv.append(f"{flag}={text}")
        elif flag in required or draw(st.booleans()):
            argv.append(f"{flag}={draw(valid)}")
    if command == "derivative" and draw(st.booleans()):
        argv.append("--check")
    if command in ("julia", "mandelbrot") and draw(st.booleans()):
        argv.append("--early-exit")
    return argv, bad, must_fail


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=argvs())
def test_every_argv_exits_0_or_1_naming_the_bad_flag(case):
    argv, flag, must_fail = case
    code, _, err, seconds = run(argv)
    assert code in (0, 1), (argv, err)
    assert code == 1 or not must_fail, (argv, "accepted")
    if code == 1:
        # the usage line lists every flag, so look only at the message
        message = err.strip().splitlines()[-1]
        assert re.search(rf"(?<![\w-]){flag}(?![\w-])", message), (argv, err)
    assert seconds < RUN_SECONDS, (argv, seconds)


LEGACY_COORDS = st.one_of(
    finite_reals(-3.0, 3.0), st.sampled_from(["inf", "-inf", "nan", "1e999", "abc", ""])
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    coords=st.tuples(*[LEGACY_COORDS] * 4),
    grid=st.one_of(small_ints(-5, 40), BAD_VALUES["count"].map(lambda case: case[0])),
    name=st.sampled_from(["cos", "sin", "tan", ""]),
)
def test_legacy_exits_0_or_1(coords, grid, name):
    code, _, err, seconds = run(["legacy", *coords, grid, name])
    assert code in (0, 1), err
    if code == 1:
        assert err.startswith(("Grid (", "Type sin or cos")), err
    assert seconds < RUN_SECONDS
