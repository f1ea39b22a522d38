"""Smoke test of `tools/oneshot.py`: one round of this tree against a copy of it.

Not part of tier-1 (`testpaths` is `tests`); run it with

    PYTHONPATH=src python -m pytest -q tools
"""

import shutil
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent / "oneshot.py"
SRC = TOOL.parent.parent / "src"
COMMANDS = ("python", "split", "iterate", "two-bridge", "compare")


def _oneshot(*srcs):
    return subprocess.run([sys.executable, str(TOOL), "--rounds", "1", *map(str, srcs)],
                          capture_output=True, text=True, timeout=300)


def _copy(tmp_path) -> Path:
    copy = tmp_path / "src"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    return copy


def test_one_round_of_this_tree_against_a_copy(tmp_path):
    proc = _oneshot(SRC, _copy(tmp_path))
    assert proc.returncode == 0, proc.stderr
    state, *lines = proc.stdout.splitlines()
    assert state.startswith("PYTHONDONTWRITEBYTECODE=")
    assert [line.split()[0] for line in lines] == [name for name in COMMANDS for _ in range(2)]
    assert all("median" in line and "q1" in line and "q3" in line for line in lines)
    assert all("faster in" in line for line in lines[1::2])


def test_other_stdout_bytes_or_a_failed_command_exit_1(tmp_path):
    copy = _copy(tmp_path)
    slopes = copy / "tunnelslopes" / "slopes.py"
    # every record gains a trailing space
    text = slopes.read_text(encoding="utf-8").replace('"".join(_ENCODE(obj, 0))', '"".join(_ENCODE(obj, 0)) + " "')
    slopes.write_text(text, encoding="utf-8")
    proc = _oneshot(SRC, copy)
    assert proc.returncode == 1
    assert f"failed: split in {copy} printed other stdout bytes" in proc.stderr.splitlines()
    empty = tmp_path / "empty"
    empty.mkdir()
    proc = _oneshot(empty)
    assert proc.returncode == 1
    assert f"failed: split in {empty} exited 1" in proc.stderr.splitlines()
