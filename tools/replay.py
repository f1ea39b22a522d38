"""Replay the recorded CLI goldens on the interpreter that runs this script.

    python3 tools/replay.py [GOLDEN]

GOLDEN defaults to `tests/golden_cli.json`.  Each case's steps run in order
through `tunnelslopes.cli.main`, imported from this checkout's `src/`, with
`{catalog}` in an argv standing for a fresh file shared by the steps of the
case.  A step passes when its exit code and stdout bytes match, and, where
the golden records one, the catalog file's bytes after it.  Needs only the
standard library, so it runs on every supported Python, pytest or not.

Each failing step gets one line on stderr.  Then one summary line goes to
stdout, and the exit code is 0 when every step passed and 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tunnelslopes.cli import main as cli_main  # noqa: E402  (needs the path above)


def _mismatches(step: dict, catalog: Path) -> list[str]:
    """What of one step differs from its golden: "code", "stdout", "catalog"."""
    argv = [arg.replace("{catalog}", str(catalog)) for arg in step["argv"]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    wrong = []
    if code != step["code"]:
        wrong.append("code")
    if out.getvalue().encode("utf-8") != step["stdout"].encode("utf-8"):
        wrong.append("stdout")
    if "catalog" in step and catalog.read_bytes() != step["catalog"].encode("utf-8"):
        wrong.append("catalog")
    return wrong


def replay(golden: Path) -> tuple[int, int, int]:
    """Replay every case of `golden`; returns the case, step and failed-step counts."""
    cases = json.loads(golden.read_text(encoding="utf-8"))
    steps = failed = 0
    for case in cases:
        with tempfile.TemporaryDirectory() as tmp:
            catalog = Path(tmp) / "catalog.jsonl"
            for step in case["steps"]:
                steps += 1
                wrong = _mismatches(step, catalog)
                if wrong:
                    failed += 1
                    print(f"{case['name']}: {' '.join(step['argv'])}: wrong {', '.join(wrong)}", file=sys.stderr)
    return len(cases), steps, failed


def main(argv: list[str]) -> int:
    golden = Path(argv[0]) if argv else ROOT / "tests" / "golden_cli.json"
    cases, steps, failed = replay(golden)
    verdict = f"{failed} failed" if failed else "ok" if steps else "nothing replayed"
    print(f"replay: Python {platform.python_version()}: {cases} cases, {steps} steps, {verdict}")
    return 0 if not failed and steps else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
