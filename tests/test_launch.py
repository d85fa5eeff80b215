"""tools/launch.py, the tools' one process launcher, and the order in which tools/bench_scan.py launches."""

import collections
import pathlib
import statistics
import sys

import pytest

import trigiter

SRC = pathlib.Path(trigiter.__file__).resolve().parents[1]
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tools"))

import bench_scan  # noqa: E402
from launch import launch  # noqa: E402


def test_launch_reports_the_childs_own_peak_exit_code_and_stdout(tmp_path):
    child = "import sys; block = bytearray(64 << 20); print('filled', len(block)); sys.exit(3)"
    wall, peak, code, out = launch(tmp_path, ["-c", child], capture=True)
    assert peak >= 64
    assert code == 3
    assert out == f"filled {64 << 20}\n"
    assert 0 < wall < 10


def test_a_scan_or_calculus_timing_is_the_seconds_its_process_prints():
    seconds = bench_scan.measure(SRC, {"call": "dottie_digits", "digits": 5, "first_call": True})
    assert 0 < seconds < 10


class FakeLaunch:
    """launch() without processes: the n-th launch of the same argv on a tree takes (n + 1) times its cost."""

    COST = {"-c pass": 0.04, "-c import trigiter": 0.05, "-c import trigiter.cli": 0.07}

    def __init__(self):
        self.calls = []
        self.seen = collections.Counter()

    def __call__(self, src, args, capture=False):
        self.calls.append((src.name, " ".join(args)))
        repeat = self.seen[src, tuple(args)]
        self.seen[src, tuple(args)] += 1
        return self.COST.get(" ".join(args), 0.0) * (repeat + 1), 30.0, 0, None


@pytest.fixture
def fake(monkeypatch):
    fake = FakeLaunch()
    monkeypatch.setattr(bench_scan, "launch", fake)
    return fake


def test_each_repeat_times_every_configuration_rotating_the_trees_and_pairs_the_bare_row(fake):
    configs = bench_scan.startup_configurations()[:3]
    srcs = {name: pathlib.Path(name) for name in ("parent", "change", "change-aa")}
    rows, ratios = bench_scan.time_trees(srcs, configs, repeats=2)
    bench_scan.add_excess_over_bare(rows, ratios)

    first = " ".join(bench_scan.FIRST_LAUNCH["argv"])
    assert fake.calls[:3] == [(name, first) for name in srcs]
    launches = [" ".join(config["argv"]) for config in configs]
    repeats = [fake.calls[3:12], fake.calls[12:21]]
    assert len(fake.calls) == 21
    assert repeats[0] == [(name, argv) for argv in launches for name in ("parent", "change", "change-aa")]
    assert repeats[1] == [(name, argv) for argv in launches for name in ("change", "change-aa", "parent")]

    # both repeats' launches, the bare ones included, are in every row: the second repeat's take twice as long
    for row in rows:
        cost = FakeLaunch.COST[" ".join(row["argv"])]
        assert row["median_s"] == pytest.approx(statistics.median([cost, 2 * cost]))
        assert row["excess_s"] == pytest.approx(1.5 * (cost - FakeLaunch.COST["-c pass"]))
    assert [ratio["change_over_parent"] for ratio in ratios] == [1.0, 1.0, 1.0]
    assert [ratio.get("excess_change_over_parent") for ratio in ratios] == [None, 1.0, 1.0]
