"""scripts/bench_pairs.py: argument checks that must fail before any run, and
what it reads and keeps of each run."""

import argparse
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("pairs", ["1", "0", "-3"])
def test_too_few_pairs_exit_two_before_any_run(tmp_path, monkeypatch, pairs):
    bench_pairs = _load()
    calls = []
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args, **kw: calls.append(args))
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                          "--pr", "0", "--workload", "grid-serial",
                          "--first-seed", "1", "--pairs", pairs])
    assert exc.value.code == 2
    assert calls == []


def _stdout(correct, problems):
    """What ``perfbench/run.py`` prints, cut to the lines ``run_once`` reads."""
    lines = ['machine {"cpu": "test"}', "sha256 ab12 report"]
    lines += [f"PROBLEM {text}" for text in problems]
    lines.append(json.dumps({"correct": correct, "attempted": 4, "failed": len(problems),
                             "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}))
    return "\n".join(lines) + "\n"


def test_run_once_keeps_the_problem_lines(tmp_path, monkeypatch):
    bench_pairs = _load()
    done = subprocess.CompletedProcess([], 0, _stdout(False, ["seed 61: a b", "c"]), "")
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *args, **kw: done)
    run = bench_pairs.run_once(tmp_path, "dense-directions", 61, 1.0)
    assert run["problems"] == ["seed 61: a b", "c"]
    assert bench_pairs.outcome(run) == {
        "correct": False, "failed": 2, "problems": ["seed 61: a b", "c"],
    }
    assert run["sha256"] == {"report": "ab12"} and run["machine"] == {"cpu": "test"}


def test_each_seed_records_both_sides_outcomes(tmp_path, monkeypatch):
    bench_pairs = _load()
    parent, change = tmp_path / "parent", tmp_path / "change"
    bad = {(parent, 8): ["routes 1.3e-09"], (change, 9): ["energy fail", "flux fail"]}

    def run_once(checkout, workload, seed, seconds, trace=0):
        problems = bad.get((checkout, seed), [])
        return {"correct": not problems, "failed": len(problems), "problems": problems,
                "metrics": {"wall_s": {"value": 1.0}}, "sha256": {}, "machine": {}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    args = argparse.Namespace(parent=parent, change=change, pairs=3, seconds=1.0)
    metrics = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]
    summary, _ = bench_pairs.bench_workload(args, "grid-serial", 7, metrics)
    assert summary["all_correct"] is False and summary["failed_ops"] == 3
    clean = {"correct": True, "failed": 0, "problems": []}
    assert summary["outcomes"] == [
        {"seed": 7, "parent": clean, "change": clean},
        {"seed": 8, "parent": {"correct": False, "failed": 1,
                               "problems": ["routes 1.3e-09"]}, "change": clean},
        {"seed": 9, "parent": clean, "change": {
            "correct": False, "failed": 2, "problems": ["energy fail", "flux fail"]}},
    ]


SETUP = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
RATE = {"name": "samples_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
# A grid-serial setup_s sample: the parent's IQR is 0.101 s on a 0.301 s
# median, 34% against the 25% bound.
WIDE_PARENT = [0.313, 0.289, 0.421, 0.252, 0.400, 0.273]
WIDE_CHANGE = [0.358, 0.255, 0.303, 0.241, 0.269, 0.337]


def test_spread_wider_than_the_bound_is_unresolved():
    summary = _load().summarize(SETUP, WIDE_PARENT, WIDE_CHANGE)
    assert summary["parent"]["iqr"] / summary["parent"]["median"] > 0.25
    assert summary["unresolved"] and not summary["worse_than_bound"]


def test_tight_runs_are_resolved():
    parent = [0.188, 0.180, 0.177, 0.190, 0.237, 0.177]
    change = [0.229, 0.207, 0.231, 0.197, 0.268, 0.208]
    summary = _load().summarize(SETUP, parent, change)
    assert not summary["unresolved"]


def test_the_wider_side_decides():
    # Tight parent runs, change runs that spread by half the median.
    parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98]
    change = [0.6, 1.4, 0.7, 1.3, 0.9, 1.1]
    summary = _load().summarize(SETUP, parent, change)
    assert summary["parent"]["iqr"] < 0.05 and summary["unresolved"]


@pytest.mark.parametrize("metric, shift", [(SETUP, -1.0), (RATE, 1.0)])
def test_every_change_run_better_is_resolved(metric, shift):
    # Wide on both sides, but every change run beats every parent run.
    parent = [2.0, 3.0, 2.5, 3.5, 2.2, 3.2]
    change = [x + shift * 2.0 for x in parent]
    summary = _load().summarize(metric, parent, change)
    assert summary["parent"]["iqr"] / summary["parent"]["median"] > 0.25
    assert not summary["unresolved"]
    # One overlapping run makes it unresolved again.
    change[0] = parent[0]
    assert _load().summarize(metric, parent, change)["unresolved"]
