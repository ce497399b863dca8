"""tools/bench_pairs.py: the commits it records, the runs it names as failed,
its no-regression verdict and its gain verdict."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _git(cwd, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=cwd,
                   check=True, capture_output=True)


def test_revision_records_head_and_dirty_tree(bench_pairs, tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "f.txt").write_text("a\n")
    _git(repo, "init", "-q")
    _git(repo, "add", "f.txt")
    _git(repo, "commit", "-q", "-m", "one")
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, capture_output=True,
                          text=True, check=True).stdout.strip()
    assert bench_pairs.revision(repo) == {"head": head, "dirty": False}
    (repo / "f.txt").write_text("b\n")
    assert bench_pairs.revision(repo)["dirty"] is True
    # a directory below the top of a work tree is no checkout of its own
    (repo / "sub").mkdir()
    assert bench_pairs.revision(repo / "sub") == {"head": None, "dirty": None}


@pytest.mark.parametrize("failing", [None, ("change", "correct"), ("parent", "failed")])
def test_failed_runs_are_named_and_exit_nonzero(bench_pairs, tmp_path, monkeypatch, capsys,
                                                 failing):
    # two checkouts at paths of equal length; the benchmark itself is not
    # run, its runs are replaced by fixed rows
    sides = {}
    for side in ("pa", "ch"):
        sides[side] = tmp_path / side
        sides[side].mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", sides[side])
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]

    def run_once(checkout, workload, seed, seconds):
        row = {"correct": True, "failed": 0, "attempted": 10, **dict.fromkeys(metrics, 1.0)}
        side = "parent" if checkout == sides["pa"] else "change"
        if failing and failing[0] == side and seed == 2:
            row.update({"correct": False} if failing[1] == "correct" else {"failed": 3})
        return row

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "pairs.json"
    rc = bench_pairs.main([str(sides["pa"]), str(sides["ch"]), "--workload", "w", "--pairs", "4",
                           "--seed0", "1", "--json", str(out)])
    record = json.loads(out.read_text())
    assert record["checkouts"] == {"parent": {"head": None, "dirty": None},
                                   "change": {"head": None, "dirty": None}}
    assert len(record["pairs"]) == 4
    if failing is None:
        assert rc == 0 and record["failed_runs"] == []
        assert "FAILED" not in capsys.readouterr().out
        return
    side = failing[0]
    assert rc == 1
    assert record["failed_runs"] == [{
        "pair": 2, "seed": 2, "side": side, "correct": failing[1] != "correct",
        "failed": 3 if failing[1] == "failed" else 0,
    }]
    assert f"FAILED: pair 2 seed 2 {side}" in capsys.readouterr().out


# parent and change wall_s over four pairs (bound 0.2, lower is better)
REGRESSION_ROWS = {
    "holds": ([1.0, 1.0, 1.0, 1.0], [1.1, 0.9, 1.1, 1.0]),
    "regressed": ([1.0, 1.0, 1.0, 1.0], [1.3, 1.2, 1.25, 1.3]),
    "unresolved": ([0.5, 1.0, 1.5, 2.0], [1.0, 1.5, 0.5, 2.0]),
    # a wide parent spread is resolved when every change run beats every parent run
    "holds-beats-all": ([0.5, 1.0, 1.5, 2.0], [0.3, 0.2, 0.4, 0.1]),
}


def _walls_through_the_tool(bench_pairs, tmp_path, monkeypatch, capsys, parent, change):
    """Run the tool on fixed rows: wall_s from the two lists, every other
    metric 1.0.  Returns its exit code, its JSON summary and its printed
    wall_s line."""
    sides = {}
    for side in ("pa", "ch"):
        sides[side] = tmp_path / side
        sides[side].mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", sides[side])
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    walls = {sides["pa"]: parent, sides["ch"]: change}

    def run_once(checkout, workload, seed, seconds):
        row = {"correct": True, "failed": 0, "attempted": 10, **dict.fromkeys(metrics, 1.0)}
        row["wall_s"] = walls[checkout][seed - 1]
        return row

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "pairs.json"
    rc = bench_pairs.main([str(sides["pa"]), str(sides["ch"]), "--workload", "w",
                           "--pairs", str(len(parent)), "--seed0", "1", "--json", str(out)])
    line = [ln for ln in capsys.readouterr().out.splitlines() if ln.lstrip().startswith("wall_s")]
    return rc, json.loads(out.read_text())["summary"], line[0]


@pytest.mark.parametrize("case", sorted(REGRESSION_ROWS))
def test_regression_verdict(bench_pairs, tmp_path, monkeypatch, capsys, case):
    rc, summary, line = _walls_through_the_tool(bench_pairs, tmp_path, monkeypatch, capsys,
                                                *REGRESSION_ROWS[case])
    assert rc == 0
    verdict = case.split("-")[0]
    assert summary["wall_s"]["regression"] == verdict
    assert {s["regression"] for name, s in summary.items() if name != "wall_s"} == {"holds"}
    assert line.endswith(f"regression: {verdict}")


# parent and change wall_s over ten pairs (lower is better); the parent's
# interquartile range is 0.015
_PARENT = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
GAIN_ROWS = {
    "shown": [0.8 * w for w in _PARENT],
    "shown-nine-wins": [0.8 * w for w in _PARENT[:9]] + [1.5],
    "not shown-eight-wins": [0.8 * w for w in _PARENT[:8]] + [1.5, 1.5],
    # every pair won, but by less than the parent's spread
    "not shown-small-gap": [w - 0.001 for w in _PARENT],
}


@pytest.mark.parametrize("case", sorted(GAIN_ROWS))
def test_gain_verdict(bench_pairs, tmp_path, monkeypatch, capsys, case):
    rc, summary, line = _walls_through_the_tool(bench_pairs, tmp_path, monkeypatch, capsys,
                                                _PARENT, GAIN_ROWS[case])
    assert rc == 0
    gain = case.split("-")[0]
    assert summary["wall_s"]["gain"] == gain
    # a metric equal on both sides wins no pair
    assert {s["gain"] for name, s in summary.items() if name != "wall_s"} == {"not shown"}
    assert f"gain: {gain}  regression:" in line
