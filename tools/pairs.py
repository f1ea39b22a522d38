"""Pair benchmark runs of two commits and write `BENCH_<label>.json`.

    python3 tools/pairs.py --parent REV --change REV --label LABEL \\
        --workload catalog-enumerate:10:2601 [--workload oracle-grid:6:2621 ...] \\
        [--seconds 20] [--claim catalog-enumerate:cases_per_s_pool:1.3] [--note TEXT]

Each `--workload NAME:PAIRS:SEED` runs PAIRS pairs, on seeds SEED, SEED+1,
and so on.  A pair is one run of the commit's own, unchanged

    perfbench/run.py --workload NAME --seed S --seconds T --trace 0

at each of the two commits, one right after the other.  The side that goes
first alternates from pair to pair, the parent first in a workload's first
pair.  Each run gets a fresh `git archive` checkout in a temporary
directory, deleted after the run, so no run sees the bytecode or output of
another.  `PYTHONPATH` and `TUNNELSLOPES_WORKERS` are removed from each
run's environment.

The file holds, per workload and per end-to-end metric of `BENCHMARK.json`
(read at the change): each side's median and quartiles, the change's median
over the parent's, the pairs the change wins, `within_bound` (the change's
median is no worse than the parent's by more than the metric's bound) and
`gain_rule_met` (wins in at least nine tenths of the pairs, and a median
better by more than the parent's interquartile range).  It lists every run
made.  The file is written even when a run fails; the exit code is then 1.
It is 0 when every run exited 0 and reported itself correct, and 2 on a
usage error.  Needs only the standard library and `git`.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DROPPED_ENV = ("PYTHONPATH", "TUNNELSLOPES_WORKERS")
SIDES = ("parent", "change")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def resolve(rev: str) -> str:
    """The full hash of the commit `rev` names."""
    return git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()


def workload_arg(text: str) -> tuple[str, int, int]:
    try:
        name, pairs, seed = text.split(":")
        pairs, seed = int(pairs), int(seed)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected NAME:PAIRS:SEED, got {text!r}") from None
    if pairs < 1:
        raise argparse.ArgumentTypeError(f"a workload needs at least one pair, got {pairs}")
    return name, pairs, seed


def claim_arg(text: str) -> tuple[str, str, float]:
    try:
        workload, metric, target = text.split(":")
        return workload, metric, float(target)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:METRIC:TARGET, got {text!r}") from None


def run_once(sha: str, workload: str, seed: int, seconds: int, scratch: str | None) -> dict:
    """One benchmark run in a fresh checkout of `sha`: its metrics, or the reason it failed."""
    checkout = tempfile.mkdtemp(prefix="pairs-", dir=scratch)
    try:
        archive = tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha)))
        # the "data" filter where this Python has it: newer ones warn without a filter
        archive.extractall(checkout, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
        env = {key: value for key, value in os.environ.items() if key not in DROPPED_ENV}
        argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"]
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True,
                                  timeout=300 + 20 * seconds)
        except subprocess.TimeoutExpired:
            return {"error": "timed out"}
        wall_s = time.perf_counter() - start
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            return {"error": f"exit {proc.returncode}: {tail}"}
        if proc.returncode != 0 or result.get("correct") is not True:
            return {"error": f"exit {proc.returncode}, correct {result.get('correct')!r}"}
        return {"metrics": {name: entry["value"] for name, entry in result["metrics"].items()}, "wall_s": wall_s}
    finally:
        shutil.rmtree(checkout, ignore_errors=True)


def spread(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(metric: dict, runs: list[dict]) -> dict:
    """One end-to-end metric over `runs`, the pairs where both runs were correct."""
    name, higher, bound = metric["name"], metric["better"] == "higher", metric["bound"]
    pairs = [(run["parent"][name], run["change"][name]) for run in runs]
    parent, change = spread([p for p, _ in pairs]), spread([c for _, c in pairs])
    parent["iqr"] = parent["q3"] - parent["q1"]
    gain = change["median"] - parent["median"] if higher else parent["median"] - change["median"]
    wins = sum((c > p) if higher else (c < p) for p, c in pairs)
    gap = abs(change["median"] - parent["median"]) > parent["iqr"]
    worst = parent["median"] * (1 - bound if higher else 1 + bound)
    return {
        "better": metric["better"],
        "bound": bound,
        "parent": parent,
        "change": change,
        "change_over_parent": change["median"] / parent["median"] if parent["median"] else None,
        "wins": wins,
        "pairs": len(pairs),
        "gap_wider_than_parent_iqr": gap,
        "gain_rule_met": 10 * wins >= 9 * len(pairs) and gap and gain > 0,
        "within_bound": change["median"] >= worst if higher else change["median"] <= worst,
    }


def run_workload(shas: dict, name: str, pairs: int, first_seed: int, seconds: int, scratch, metrics) -> dict:
    runs = []
    for index in range(pairs):
        seed = first_seed + index
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        sides = {}
        for side in order:
            sides[side] = outcome = run_once(shas[side], name, seed, seconds, scratch)
            state = f"{outcome['wall_s']:.1f} s" if "metrics" in outcome else outcome["error"]
            print(f"pairs: {name} seed {seed} {side}: {state}", file=sys.stderr, flush=True)
        run = {"seed": seed, "first": order[0], "correct": all("metrics" in sides[side] for side in SIDES)}
        for side in SIDES:
            run[side] = sides[side].get("metrics", {"error": sides[side].get("error")})
        runs.append(run)
    done = [run for run in runs if run["correct"]]
    return {
        "seeds": [run["seed"] for run in runs],
        "first": [run["first"] for run in runs],
        "correct": len(done) == len(runs),
        "metrics": {metric["name"]: summarize(metric, done) for metric in metrics} if done else {},
        "runs": runs,
    }


def method(seconds: int, note: str | None) -> str:
    bytecode = os.environ.get("PYTHONDONTWRITEBYTECODE")
    text = (
        "each run uses the unchanged perfbench/run.py of its own commit in a fresh git-archive checkout, made "
        "just before the run and deleted after it, so every run starts with no bytecode cache; "
        + (f"PYTHONDONTWRITEBYTECODE={bytecode} is set, so every run also compiles the package source on each "
           "import; " if bytecode else "PYTHONDONTWRITEBYTECODE is unset, so a run writes bytecode into its own "
           "checkout only; ")
        + f"--seconds {seconds} --trace 0; the two runs of a pair go one right after the other, alternating which "
        "side runs first, with PYTHONPATH and TUNNELSLOPES_WORKERS removed from the environment; q1/median/q3 "
        "from statistics.quantiles(n=4, method='inclusive') over the pairs where both runs were correct; a win "
        "is a pair where the change reads better in the metric's direction, ties count for neither; "
        "within_bound says the change's median is no worse than the parent's by more than the BENCHMARK.json "
        "bound; gain_rule_met needs wins in at least nine tenths of the pairs and a median better by more than "
        "the parent's interquartile range. Every run made is listed"
    )
    return f"{text}. {note}" if note else text


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="pairs.py", description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the commit measured against")
    parser.add_argument("--change", required=True, help="the commit measured")
    parser.add_argument("--label", required=True, help="names the output, BENCH_<label>.json")
    parser.add_argument("--workload", type=workload_arg, action="append", required=True,
                        help="NAME:PAIRS:SEED, repeatable")
    parser.add_argument("--seconds", type=int, default=20, help="perfbench --seconds of every run")
    parser.add_argument("--claim", type=claim_arg, help="WORKLOAD:METRIC:TARGET, the change over the parent")
    parser.add_argument("--note", help="a sentence added to the file's method")
    parser.add_argument("--out", type=Path, help="output path, BENCH_<label>.json at the repository root if unset")
    parser.add_argument("--scratch", help="where the checkouts go, the system temporary directory if unset")
    args = parser.parse_args(argv)
    try:
        shas = {"parent": resolve(args.parent), "change": resolve(args.change)}
    except subprocess.CalledProcessError as exc:
        parser.error(exc.stderr.decode().strip() or "unknown revision")
    metrics = json.loads(git("show", f"{shas['change']}:BENCHMARK.json"))["end_to_end"]
    if args.claim and (args.claim[0] not in [name for name, _, _ in args.workload]
                       or args.claim[1] not in [metric["name"] for metric in metrics]):
        parser.error(f"--claim names a workload not run or a metric not in BENCHMARK.json: {args.claim}")
    workloads = {
        name: run_workload(shas, name, pairs, seed, args.seconds, args.scratch, metrics)
        for name, pairs, seed in args.workload
    }
    claim = None
    if args.claim:
        workload, metric, target = args.claim
        summary = workloads[workload]["metrics"].get(metric)
        met = False
        if summary and summary["gain_rule_met"] and summary["change_over_parent"] is not None:
            ratio = summary["change_over_parent"]
            met = ratio >= target if summary["better"] == "higher" else ratio <= target
        claim = {"workload": workload, "metric": metric, "target_change_over_parent": target, "met": met}
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    bench = {
        "label": args.label,
        "machine": {"python": platform.python_version(), "nproc": nproc},
        "parent": shas["parent"],
        "change": shas["change"],
        "command": f"python3 perfbench/run.py --workload <workload> --seed <seed> --seconds {args.seconds} --trace 0",
        "method": method(args.seconds, args.note),
        "claim": claim,
        "workloads": workloads,
    }
    out = args.out or ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    correct = all(workload["correct"] for workload in workloads.values())
    print(f"pairs: wrote {out}; {'every run correct' if correct else 'a run failed or was incorrect'}",
          file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
