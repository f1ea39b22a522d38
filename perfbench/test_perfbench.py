"""Tests of the benchmark itself, on shrunken workloads.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import run

sys.path.insert(0, run.SRC)

import bench  # noqa: E402
import workloads  # noqa: E402
from spans import installed_wrappers  # noqa: E402
from tunnelslopes import two_bridge, verify  # noqa: E402
from tunnelslopes.slopes import Slope, TunnelInvariants, simple_class  # noqa: E402


@pytest.fixture(autouse=True)
def small_workloads(monkeypatch):
    monkeypatch.setattr(workloads.OracleGrid, "box", (1, 2, 2))
    monkeypatch.setattr(workloads.OracleGrid, "profile_box", (1, 1, 2))
    monkeypatch.setattr(workloads.CatalogEnumerate, "frame_count", 2)
    monkeypatch.setattr(workloads.CatalogEnumerate, "depth", 2)


def run_bench(capsys, workload: str, trace: int = 0, seconds: int = 1) -> tuple[int, dict]:
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_plain_run_is_correct_and_reports_every_end_to_end_metric(capsys, name):
    code, result = run_bench(capsys, name)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == bench.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_wrong_engine_output_drives_error_rate_and_exit_code(capsys, monkeypatch):
    original = verify.oracle_slopes

    def wrong(frame, kind, twists):
        slopes, trace = original(frame, kind, twists)
        if twists[0] == 1:
            slopes[0] = Slope(slopes[0].value + 1, slopes[0].coords)
        return slopes, trace

    monkeypatch.setattr(verify, "oracle_slopes", wrong)
    code, result = run_bench(capsys, "oracle-grid")
    assert code == 1
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]


def test_wrong_correspondence_route_is_counted(capsys, monkeypatch):
    original = two_bridge.semisimple_slopes

    def wrong(cf):
        invariants = original(cf)
        shifted = simple_class(invariants.first.representative + Fraction(1, 7))
        return TunnelInvariants(shifted, invariants.rest, invariants.binary)

    monkeypatch.setattr(two_bridge, "semisimple_slopes", wrong)
    code, result = run_bench(capsys, "correspondence-sampled")
    assert code == 1 and result["failed"] > 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_metric_and_unwraps(capsys, name):
    code, result = run_bench(capsys, name, trace=1)
    assert code == 0 and result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == bench.PER_LAYER
    assert installed_wrappers() == []
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["slopes.fraction_new.per_case"] > 0
    if name == "oracle-grid":
        assert metrics["iteration.sign_tables.hit_ratio"] > 0.9
        assert metrics["iteration.oracle_slopes.calls"] > 0
        assert metrics["frames.homology_ops_per_case"] > 0
    if name == "correspondence-sampled":
        assert metrics["iteration.sign_tables.hit_ratio"] < 0.5
        assert metrics["iteration.oracle_slopes.calls"] == 0
        assert metrics["two_bridge.semisimple_slopes.self_us"] > 0
    if name == "catalog-enumerate":
        assert metrics["catalog.lines_loaded"] > 0 and metrics["catalog.bytes_appended"] > 0
    if name == "cli-calls":
        assert all(metrics[f"cli.main_us.{c}"] > 0 for c in bench.CLI_COMMANDS)


def test_without_the_package_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(os.path.join(run.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-grid", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
