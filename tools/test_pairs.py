"""Smoke test of `tools/pairs.py`: one pair of HEAD against itself.

Not part of tier-1 (`testpaths` is `tests`); run it with

    PYTHONPATH=src python -m pytest -q tools
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent / "pairs.py"
ROOT = TOOL.parent.parent


def _in_checkout() -> bool:
    try:
        return subprocess.run(["git", "rev-parse"], cwd=ROOT, capture_output=True).returncode == 0
    except OSError:  # no git at all
        return False


# `pairs.py` resolves `--parent` and `--change` with git, so a copy without `.git` (`git archive`) exits 2
needs_checkout = pytest.mark.skipif(not _in_checkout(), reason="needs a git checkout")


@needs_checkout
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
    assert isinstance(bench["claim"].pop("others_within_bound"), bool)  # one noisy pair may read either way
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


def _load_tool():
    spec = importlib.util.spec_from_file_location("pairs", TOOL)
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    return pairs


@needs_checkout
def test_the_claim_says_whether_every_metric_is_within_its_bound(tmp_path, monkeypatch, capsys):
    # synthetic runs, no benchmark: every metric reads 100 at the parent and at the change, except
    # that the change doubles oracle-grid's cases_per_s (the claim) and, in the second call, raises
    # cli-calls' peak_rss_mb by 20%, past its 15% bound
    pairs = _load_tool()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]

    def synthetic(sha, workload, seed, seconds, scratch):
        # one pair per workload, so the parent runs first: calls alternate parent, change
        side = "change" if len(calls) % 2 else "parent"
        calls.append(side)
        metrics = {metric["name"]: 100.0 for metric in declared}
        if side == "change":
            metrics.update({"cases_per_s": 200.0} if workload == "oracle-grid" else worse.get(workload, {}))
        return {"metrics": metrics, "wall_s": 0.0}

    monkeypatch.setattr(pairs, "run_once", synthetic)
    for outside in ([], ["cli-calls:peak_rss_mb"]):
        calls = []
        worse = {"cli-calls": {"peak_rss_mb": 120.0}} if outside else {}
        out = tmp_path / "BENCH_synthetic.json"
        argv = ["--parent", "HEAD", "--change", "HEAD", "--label", "synthetic", "--workload", "oracle-grid:1:7",
                "--workload", "cli-calls:1:7", "--claim", "oracle-grid:cases_per_s:1.5", "--out", str(out)]
        assert pairs.main(argv) == 0 and calls == ["parent", "change"] * 2
        bench = json.loads(out.read_text(encoding="utf-8"))
        assert bench["claim"] == {"workload": "oracle-grid", "metric": "cases_per_s",
                                  "target_change_over_parent": 1.5, "met": True,
                                  "others_within_bound": not outside}
        assert pairs.outside_bounds(bench["workloads"], declared) == outside
        closing = capsys.readouterr().err.splitlines()[-1]
        assert closing.startswith("pairs: wrote ") and closing.endswith(
            "; not within bound: cli-calls:peak_rss_mb" if outside else "; every metric within bound")


@needs_checkout
def test_a_failed_run_is_listed_and_exits_1(tmp_path, monkeypatch):
    # every run fails as perfbench fails on a usage error, so both runs of the pair fail
    pairs = _load_tool()
    monkeypatch.setattr(pairs, "run_once", lambda *args: {"error": "exit 2: perfbench: usage error"})
    out = tmp_path / "BENCH_failed.json"
    argv = ["--parent", "HEAD", "--change", "HEAD", "--label", "failed", "--workload", "oracle-grid:1:7",
            "--seconds", "1", "--out", str(out), "--scratch", str(tmp_path)]
    assert pairs.main(argv) == 1
    workload = json.loads(out.read_text(encoding="utf-8"))["workloads"]["oracle-grid"]
    assert (workload["correct"], workload["metrics"]) == (False, {})
    (run,) = workload["runs"]
    assert run["correct"] is False and run["parent"]["error"].startswith("exit 2") and "error" in run["change"]
    assert list(tmp_path.iterdir()) == [out]


def test_seconds_below_1_is_a_usage_error_before_any_run(tmp_path):
    out = tmp_path / "BENCH_zero.json"
    argv = [sys.executable, str(TOOL), "--parent", "HEAD", "--change", "HEAD", "--label", "zero",
            "--workload", "oracle-grid:1:7", "--seconds", "0", "--out", str(out), "--scratch", str(tmp_path)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2
    assert "error: --seconds must be at least 1, got 0" in proc.stderr
    assert "pairs:" not in proc.stderr  # no run was made
    assert list(tmp_path.iterdir()) == []  # no checkout, and no BENCH file


@needs_checkout
def test_an_unknown_workload_is_a_usage_error_before_any_run(tmp_path):
    out = tmp_path / "BENCH_unknown.json"
    argv = [sys.executable, str(TOOL), "--parent", "HEAD", "--change", "HEAD", "--label", "unknown",
            "--workload", "oracle-grid:1:7", "--workload", "no-such-workload:1:7", "--out", str(out),
            "--scratch", str(tmp_path)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2
    assert "error: --workload names ['no-such-workload'] not in BENCHMARK.json" in proc.stderr
    assert "pairs:" not in proc.stderr  # no run was made
    assert list(tmp_path.iterdir()) == []  # no checkout, and no BENCH file
