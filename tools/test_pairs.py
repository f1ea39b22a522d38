"""Smoke test of `tools/pairs.py`: one pair of HEAD against itself.

Not part of tier-1 (`testpaths` is `tests`); run it with

    PYTHONPATH=src python -m pytest -q tools
"""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent / "pairs.py"
ROOT = TOOL.parent.parent


def test_one_oracle_grid_pair_of_head_against_itself(tmp_path):
    out = tmp_path / "BENCH_smoke.json"
    argv = [sys.executable, str(TOOL), "--parent", "HEAD", "--change", "HEAD", "--label", "smoke",
            "--workload", "oracle-grid:1:1", "--seconds", "1", "--claim", "oracle-grid:cases_per_s:1.5",
            "--out", str(out), "--scratch", str(tmp_path)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr
    bench = json.loads(out.read_text(encoding="utf-8"))
    assert list(bench) == ["label", "machine", "parent", "change", "command", "method", "claim", "workloads"]
    assert bench["label"] == "smoke" and bench["parent"] == bench["change"] and len(bench["parent"]) == 40
    assert bench["claim"] == {"workload": "oracle-grid", "metric": "cases_per_s",
                              "target_change_over_parent": 1.5, "met": False}
    assert list(bench["workloads"]) == ["oracle-grid"]
    workload = bench["workloads"]["oracle-grid"]
    assert (workload["seeds"], workload["first"], workload["correct"]) == ([1], ["parent"], True)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    assert list(workload["metrics"]) == [metric["name"] for metric in declared]
    for metric in declared:
        summary = workload["metrics"][metric["name"]]
        assert (summary["better"], summary["bound"], summary["pairs"]) == (metric["better"], metric["bound"], 1)
        assert set(summary["parent"]) == {"median", "q1", "q3", "iqr"}
        assert set(summary["change"]) == {"median", "q1", "q3"}
        assert isinstance(summary["within_bound"], bool) and summary["gain_rule_met"] in (True, False)
    (run,) = workload["runs"]
    assert (run["seed"], run["first"], run["correct"]) == (1, "parent", True)
    for side in ("parent", "change"):
        assert set(run[side]) == {metric["name"] for metric in declared}
    assert list(tmp_path.iterdir()) == [out]  # every checkout was deleted


def test_a_failed_run_is_listed_and_exits_1(tmp_path):
    out = tmp_path / "BENCH_failed.json"
    argv = [sys.executable, str(TOOL), "--parent", "HEAD", "--change", "HEAD", "--label", "failed",
            "--workload", "no-such-workload:1:7", "--out", str(out), "--scratch", str(tmp_path)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1
    workload = json.loads(out.read_text(encoding="utf-8"))["workloads"]["no-such-workload"]
    assert (workload["correct"], workload["metrics"]) == (False, {})
    (run,) = workload["runs"]
    assert run["correct"] is False and run["parent"]["error"].startswith("exit 2") and "error" in run["change"]
    assert list(tmp_path.iterdir()) == [out]
