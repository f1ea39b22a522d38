"""Replay the recorded CLI goldens on the interpreter that runs this script.

    python3 tools/replay.py [GOLDEN]

GOLDEN defaults to `tests/golden_cli.json`.  Each case's steps run in order
through `tunnelslopes.cli.main`, imported from this checkout's `src/`, with
`{catalog}` in an argv standing for a fresh file shared by the steps of the
case.  A step passes when its exit code and stdout bytes match, and, where
the golden records one, the catalog file's bytes after it.  A usage error
that argparse raises as `SystemExit` counts as that step's exit code.

Then the `--opt=--` argvs of `USAGE_ERRORS` run the same way: each must exit
2 with nothing on stdout and the given last line on stderr.  Needs only the
standard library, so it runs on every supported Python, pytest or not.

Each failing step gets one line on stderr.  Then one summary line goes to
stdout.  The exit code is 0 when every step passed, and 1 when a step
failed or the golden holds none.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tunnelslopes.cli import main as cli_main  # noqa: E402  (needs the path above)

# Python versions read `--opt=--` differently; each of these must stay an argparse usage error
# with this last stderr line.  They live here, not in the golden, which `tests/test_golden_cli.py`
# also replays, and that test only runs steps that return an exit code.  The double-dash tests
# of `tests/test_cli.py` read this table too.
USAGE_ERRORS = (
    (("split", "--frame", "2,3,1,2", "--kind", "drop-rho", "--n=--"),
     "tunnelslopes split: error: argument --n: expected one argument"),
    (("iterate", "--frame=--", "--kind", "drop-rho-pure", "--twists", "2"),
     "tunnelslopes iterate: error: argument --frame: expected one argument"),
    (("iterate", "--frame", "2,3,1,2", "--kind", "drop-rho-pure", "--twists=--"),
     "tunnelslopes iterate: error: argument --twists: expected one argument"),
    (("two-bridge", "slopes", "--a=--", "--b", "1"),
     "tunnelslopes two-bridge slopes: error: argument --a: expected one argument"),
    (("two-bridge", "from-twists", "--twists=--"),
     "tunnelslopes two-bridge from-twists: error: argument --twists: expected one argument"),
    (("enumerate", "--catalog=--", "--frame", "2,3,1,2"),
     "tunnelslopes enumerate: error: argument --catalog: expected one argument"),
    (("enumerate", "--catalog", "unused.jsonl", "--frame", "2,3,1,2", "--depth=--"),
     "tunnelslopes enumerate: error: argument --depth: expected one argument"),
    (("verify-oracle", "--depth=--"),
     "tunnelslopes verify-oracle: error: argument --depth: expected one argument"),
    (("compare", "--left=--", "--right", "{}"),
     "tunnelslopes compare: error: argument --left: expected one argument"),
    (("enumerate", "--catalog", "unused.jsonl", "--frame", "2,3,1,2", "--kind=--"),
     "tunnelslopes enumerate: error: argument --kind: expected one argument"),
    (("iterate", "--frame", "2,3,1,2", "--kind", "drop-rho-pure", "--twists", "2", "--verify=--"),
     "tunnelslopes iterate: error: argument --verify: ignored explicit argument '--'"),
    (("split", "--frame", "2,3,1,2", "--kind", "drop-rho", "--n=--", "3"),
     "tunnelslopes split: error: argument --n: expected one argument"),
)


def _mismatches(step: dict, catalog: Path) -> list[str]:
    """What of one step differs from its golden: "code", "stdout", "catalog", "stderr"."""
    argv = [arg.replace("{catalog}", str(catalog)) for arg in step["argv"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    wrong = []
    if code != step["code"]:
        wrong.append("code")
    if out.getvalue().encode("utf-8") != step["stdout"].encode("utf-8"):
        wrong.append("stdout")
    if "catalog" in step and catalog.read_bytes() != step["catalog"].encode("utf-8"):
        wrong.append("catalog")
    if "stderr_last" in step and err.getvalue().splitlines()[-1:] != [step["stderr_last"]]:
        wrong.append("stderr")
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


def replay_usage_errors() -> int:
    """Run every argv of `USAGE_ERRORS`; returns the failed count."""
    failed = 0
    for argv, last in USAGE_ERRORS:
        wrong = _mismatches({"argv": argv, "code": 2, "stdout": "", "stderr_last": last}, Path(os.devnull))
        if wrong:
            failed += 1
            print(f"usage error: {' '.join(argv)}: wrong {', '.join(wrong)}", file=sys.stderr)
    return failed


def main(argv: list[str]) -> int:
    golden = Path(argv[0]) if argv else ROOT / "tests" / "golden_cli.json"
    cases, steps, failed = replay(golden)
    failed += replay_usage_errors()
    verdict = f"{failed} failed" if failed else "ok" if steps else "nothing replayed"
    print(
        f"replay: Python {platform.python_version()}: {cases} cases, {steps} steps, "
        f"{len(USAGE_ERRORS)} usage errors, {verdict}"
    )
    return 0 if not failed and steps else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
