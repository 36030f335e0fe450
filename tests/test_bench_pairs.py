"""tools/bench_pairs.py: the per-metric summary of paired runs, and its set parser."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "samples_per_s", "better": "higher", "bound": 0.25},
]
# Ten parent runs with median 10 and quartiles 9 and 11
# (statistics.quantiles' exclusive method), so the parent's IQR is 2.
PARENT = [9.0, 10.0, 11.0, 9.0, 10.0, 11.0, 9.0, 10.0, 11.0, 10.0]


def runs(parent, change):
    """Result lines in pair order, with the same values for both metrics."""
    def result(value):
        return {"correct": True, "failed": 0,
                "metrics": {m["name"]: {"value": value} for m in METRICS}}
    out = []
    for pair, (p, c) in enumerate(zip(parent, change), start=1):
        out += [{"side": "parent", "pair": pair, "result": result(p)},
                {"side": "change", "pair": pair, "result": result(c)}]
    return out


def summary(change, metric):
    return bench_pairs.summarize(runs(PARENT, change), METRICS)[metric]


def test_parent_spread():
    got = summary(PARENT, "wall_s")["parent"]
    assert (got["median"], got["q1"], got["q3"]) == (10.0, 9.0, 11.0)


def test_wins_count_the_better_direction():
    # Eight pairs read 3 lower and two read 3 higher: wins for wall_s (lower
    # is better), losses for samples_per_s (higher is better).
    change = [p - 3.0 for p in PARENT[:8]] + [p + 3.0 for p in PARENT[8:]]
    assert summary(change, "wall_s")["change_wins"] == 8
    assert summary(change, "samples_per_s")["change_wins"] == 2


@pytest.mark.parametrize("metric, sign", [("wall_s", -1.0), ("samples_per_s", 1.0)])
@pytest.mark.parametrize("step, lost_pairs, met", [
    (3.0, 0, True),    # every pair won, gain 3 > IQR 2
    (3.0, 1, True),    # 9 of 10 pairs is 90%
    (3.0, 2, False),   # 8 of 10 pairs
    (1.5, 0, False),   # every pair won, but gain 1.5 < IQR 2
])
def test_gain_rule(metric, sign, step, lost_pairs, met):
    change = [p + sign * step for p in PARENT]
    for j in range(lost_pairs):
        change[j] = PARENT[j] - sign * 0.5
    got = summary(change, metric)
    assert got["change_wins"] == len(PARENT) - lost_pairs
    assert got["gain_rule_met"] is met


@pytest.mark.parametrize("metric, factor, worse", [
    ("wall_s", 1.3, True),
    ("wall_s", 1.2, False),
    ("wall_s", 0.5, False),
    ("samples_per_s", 0.7, True),
    ("samples_per_s", 0.8, False),
    ("samples_per_s", 2.0, False),
])
def test_bound_flag(metric, factor, worse):
    got = summary([p * factor for p in PARENT], metric)
    assert got["change_vs_parent"] == pytest.approx(factor - 1)
    assert got["worse_by_more_than_bound"] is worse


def test_set_parsing():
    assert bench_pairs.workload_set("desk_sim@211:10") == ("desk_sim", 211, 10)


def test_one_pair_set_refused_before_any_run(tmp_path):
    # The parent checkout does not exist, so any run would fail; the refusal
    # comes first, for a one-pair set after a valid one too.
    out = tmp_path / "bench.json"
    proc = subprocess.run([sys.executable, str(SCRIPT), "--parent", str(tmp_path / "none"),
                           "--out", str(out), "full_sim@1:2", "desk_sim@0:1"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "'desk_sim@0:1' has 1 pairs; a set needs at least 2" in proc.stderr
    assert not out.exists()
