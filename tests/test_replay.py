"""`tools/replay.py` replays the CLI goldens on the current interpreter, and fails on any wrong byte."""

import json
import platform
import subprocess
import sys
from pathlib import Path

import pytest

REPLAY = Path(__file__).resolve().parent.parent / "tools" / "replay.py"
GOLDEN = json.loads(Path(__file__).with_name("golden_cli.json").read_text(encoding="utf-8"))


def _replay(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(REPLAY), *args], capture_output=True, text=True, encoding="utf-8", timeout=120
    )


def _summary(cases: int, steps: int, verdict: str) -> list[str]:
    # the 12 `--opt=--` argvs of tests/test_cli.py's two double-dash tests
    return [f"replay: Python {platform.python_version()}: {cases} cases, {steps} steps, 12 usage errors, {verdict}"]


def test_replay_passes_on_this_interpreter():
    result = _replay()
    assert (result.returncode, result.stderr) == (0, "")
    steps = sum(len(case["steps"]) for case in GOLDEN)
    assert result.stdout.splitlines() == _summary(len(GOLDEN), steps, "ok")


def test_replay_fails_on_a_wrong_code_stdout_or_catalog(tmp_path):
    cases = json.loads(json.dumps(GOLDEN))
    split = cases[0]["steps"][0]
    split["code"] = 1
    split["stdout"] = split["stdout"].replace("11/1", "12/1")
    enumerate_step = next(step for case in cases for step in case["steps"] if "catalog" in step)
    enumerate_step["catalog"] += "\n"
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps(cases), encoding="utf-8")
    result = _replay(str(golden))
    assert result.returncode == 1
    steps = sum(len(case["steps"]) for case in cases)
    assert result.stdout.splitlines() == _summary(len(cases), steps, "2 failed")
    first, second = result.stderr.splitlines()
    assert first.startswith("split: split --frame 2,3,1,2") and first.endswith(": wrong code, stdout")
    assert second.endswith(": wrong catalog")


@pytest.mark.parametrize(
    "code, returncode, verdict, stderr",
    [(2, 0, "ok", ""), (0, 1, "1 failed", "split: {argv}: wrong code\n")],
    ids=["expects-2", "expects-0"],
)
def test_replay_reads_a_usage_error_as_exit_code_2(tmp_path, code, returncode, verdict, stderr):
    argv = ["split", "--frame", "2,3,1,2", "--kind", "drop-rho", "--n=--"]
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps([{"name": "split", "steps": [{"argv": argv, "code": code, "stdout": ""}]}]))
    result = _replay(str(golden))
    assert (result.returncode, result.stderr) == (returncode, stderr.format(argv=" ".join(argv)))
    assert result.stdout.splitlines() == _summary(1, 1, verdict)


def test_replay_of_nothing_fails(tmp_path):
    golden = tmp_path / "golden.json"
    golden.write_text("[]", encoding="utf-8")
    result = _replay(str(golden))
    assert result.returncode == 1
    assert result.stdout.splitlines() == _summary(0, 0, "nothing replayed")
