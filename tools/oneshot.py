"""Time one-shot CLI calls of one or more source trees, as fresh interpreters.

    python3 tools/oneshot.py [--rounds 15] SRC [SRC ...]

Each SRC is a directory holding the `tunnelslopes` package, such as the
`src` of a checkout.  A round runs, once per SRC, a bare interpreter
(`python -c pass`) and the four commands of perfbench's `cli-calls` mix,
as the README gives them: `split`, `iterate`, `two-bridge slopes` and
`compare`.  Each run is a fresh `python -m tunnelslopes` subprocess started
in SRC, so it imports that tree's package; `PYTHONPATH` and
`TUNNELSLOPES_WORKERS` are removed from its environment.  Within a round the
trees run one after the other for each command, and the tree that goes
first alternates from round to round.

Prints the bytecode state (`PYTHONDONTWRITEBYTECODE`, as inherited), then,
per command and tree, the median and quartiles of the wall time in ms, the
median over the bare interpreter's, and, for every tree after the first,
the ratio of its median to the first tree's and the rounds it was faster in.
Exits 1 if a command exits nonzero or prints stdout bytes that differ from
its first run, on any tree; 2 on a usage error.  Needs only the standard
library.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time

DROPPED_ENV = ("PYTHONPATH", "TUNNELSLOPES_WORKERS")
BARE = "python"
COMMANDS = {
    BARE: ["-c", "pass"],
    "split": ["-m", "tunnelslopes", "split", "--frame", "2,3,1,2", "--kind", "drop-lambda", "--n", "1"],
    "iterate": ["-m", "tunnelslopes", "iterate", "--frame", "1,0,0,1", "--kind", "drop-rho-pure",
                "--twists", "2,3", "--from-trivial", "--verify"],
    "two-bridge": ["-m", "tunnelslopes", "two-bridge", "slopes", "--a", "1,1", "--b", "1,1"],
    "compare": ["-m", "tunnelslopes", "compare", "--left", '{"frame":"1,0,0,1","kind":"drop-rho-pure","twists":"2"}',
                "--right", '{"frame":"-1,0,0,-1","kind":"drop-rho-pure","twists":"2"}'],
}


def spread(values: list[float]) -> tuple[float, float, float]:
    """q1, median and q3 of `values`."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def run(src: str, args: list[str], env: dict) -> tuple[float, int, bytes]:
    """Wall ms, exit code and stdout of one fresh interpreter started in `src`."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=src, env=env, capture_output=True, check=False)
    return (time.perf_counter() - start) * 1000, proc.returncode, proc.stdout


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=15, help="interleaved rounds, at least 1")
    parser.add_argument("src", nargs="+", help="a directory holding the tunnelslopes package")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    missing = [src for src in args.src if not os.path.isdir(src)]
    if missing:
        parser.error(f"not a directory: {', '.join(missing)}")
    if len(set(args.src)) != len(args.src):
        parser.error("each SRC may be given once")
    env = {key: value for key, value in os.environ.items() if key not in DROPPED_ENV}
    env["PYTHONIOENCODING"] = "utf-8"
    print(f"PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '(unset)')}")

    times = {(name, src): [] for name in COMMANDS for src in args.src}
    first_out: dict[str, bytes] = {}
    failures = []
    for round_no in range(args.rounds):
        order = args.src if round_no % 2 == 0 else args.src[::-1]
        for name, command in COMMANDS.items():
            for src in order:
                ms, code, out = run(src, command, env)
                times[name, src].append(ms)
                if code != 0:
                    failures.append(f"{name} in {src} exited {code}")
                elif first_out.setdefault(name, out) != out:
                    failures.append(f"{name} in {src} printed other stdout bytes")

    base = args.src[0]
    for name in COMMANDS:
        for src in args.src:
            q1, median, q3 = spread(times[name, src])
            line = f"{name:<11} {src}: median {median:.1f} ms (q1 {q1:.1f}, q3 {q3:.1f})"
            if name != BARE:
                line += f", {median - spread(times[BARE, src])[1]:+.1f} ms over {BARE}"
            if src != base:
                faster = sum(a < b for a, b in zip(times[name, src], times[name, base]))
                line += f", {median / spread(times[name, base])[1]:.3f}x {base}, faster in {faster} of {args.rounds}"
            print(line)
    for failure in dict.fromkeys(failures):
        print(f"failed: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
