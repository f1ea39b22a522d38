"""Benchmark of the tunnelslopes package: one workload per run.

    python3 perfbench/run.py --workload oracle-grid --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from `src/` and
builds nothing.  With `--trace 0` it measures the end-to-end metrics with no
tracing installed; with `--trace 1` it also runs a traced pass and reports
the per-layer metrics instead.  It prints one line per metric with its unit,
then, as its last line, a JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.  Any wrong output makes the exit code 1.  Spans of a
traced run and each result, with the seed, Python version, nproc and worker
count, are written under `perfbench/out/`.  See `perfbench/README.md`.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "tunnelslopes", "__init__.py")):
        print(f"perfbench: no tunnelslopes package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import bench

    return bench.main(argv)


if __name__ == "__main__":
    sys.exit(main())
