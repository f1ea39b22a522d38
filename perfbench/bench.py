"""Measurement and reporting for one benchmark run; `run.py` is the entry point.

A plain run times the workload's chunked passes with no tracing installed.
A traced run repeats them, then times one traced pass and one untraced pass
of the same bounded subset, and counts `Fraction.__new__` calls with cProfile
over a smaller subset.  Every timing goes through `clock.Clock`.
"""

from __future__ import annotations

import argparse
import cProfile
import functools
import gc
import json
import os
import platform
import pstats
import resource
import shutil
import statistics
import subprocess
import sys

import workloads
from clock import Clock
from spans import Tracer, installed_wrappers
from tunnelslopes import iteration
from workloads import NPROC, WORKERS, CliCalls

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
SETUP_REPEATS = 3
P95_BLOCK = 200  # CLI latency samples per p95 estimate: 10 lie beyond it
IMPORT_PROBE = "import time; t = time.perf_counter(); import tunnelslopes.cli; print(time.perf_counter() - t)"

END_TO_END = {
    "setup_s": "s",
    "cases_per_s": "1/s",
    "cases_per_s_pool": "1/s",
    "rerun_cases_per_s": "1/s",
    "cli_ms_p50": "ms",
    "cli_ms_p95": "ms",
    "peak_rss_mb": "MB",
}

SELF_TIMED = (
    "iteration.closed_form_slopes",
    "iteration.oracle_slopes",
    "iteration.assemble_invariants",
    "slopes.slope_to_simple",
    "slopes.invariants_equal",
    "slopes.to_dict",
    "two_bridge.validate_cf",
    "two_bridge.cf_to_twists",
    "two_bridge.semisimple_slopes",
    "two_bridge.verify_correspondence",
    "verify.check_oracle_case",
    "verify.check_correspondence_case",
    "catalog.load_entries",
    "catalog.invariants_key",
    "catalog.entry_dict",
    "catalog.dump_line",
    "catalog.append_lines",
)
CLI_COMMANDS = ("split", "iterate", "two-bridge", "compare")

PER_LAYER = {
    **{f"{layer}.self_us": "us" for layer in SELF_TIMED},
    "iteration.oracle_slopes.calls": "count",
    "iteration.joins_per_case": "count",
    "iteration.sign_tables.hit_ratio": "ratio",
    "frames.homology_ops_per_case": "count",
    "slopes.fraction_new.per_case": "count",
    "verify.dispatch.self_us_per_case": "us",
    "verify.pool.scaling_efficiency": "ratio",
    "catalog.lines_loaded": "count",
    "catalog.bytes_appended": "bytes",
    "catalog.unique_ratio": "ratio",
    "cli.main.self_us_per_point": "us",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    **{f"cli.main_us.{command}": "us" for command in CLI_COMMANDS},
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="sizes the seeded workloads; 20 is the reference")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def median_subprocess_s(code: str, env: dict, clock) -> float:
    """Median scaled time of fresh interpreters running `code`, or of the time each prints."""
    probe = functools.partial(
        subprocess.run, [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    probes = [clock.time(probe, kind="start") for _ in range(SETUP_REPEATS)]
    return statistics.median(
        float(proc.stdout) * clock.factor(ticket) if proc.stdout.strip() else clock.scaled_s(ticket)
        for proc, ticket in probes
    )


def measure_setup(workload, env: dict, clock) -> tuple[float, float]:
    """setup_s: median package import in a fresh interpreter plus median input and expected-output build."""
    import_s = median_subprocess_s(IMPORT_PROBE, env, clock)
    builds = [clock.time(workload.setup)[1] for _ in range(SETUP_REPEATS)]
    return import_s + statistics.median(clock.scaled_s(ticket) for ticket in builds), import_s


def end_to_end(workload, tally, clock) -> dict:
    """Median per-chunk rates of the three passes, and CLI latency percentiles.

    The passes are interleaved chunk by chunk, each spread evenly over the
    run, so that a slow spell of the host touches every metric a little
    rather than one metric a lot.  A rerun chunk follows its cold chunk.
    p95 is the median of the p95s of consecutive blocks of at least
    `P95_BLOCK` latency samples, so that one slow spell moves one block.
    """
    kind = workload.calibration
    streams = {
        "cold": [(1, kind, workload.run, chunk, 1) for chunk in workload.chunks],
        "rerun": [(1, kind, workload.run, chunk, 1) for chunk in workload.chunks],
        "pool": [(WORKERS, kind, workload.run, chunk, WORKERS) for chunk in workload.pool_chunks],
        "latency": [(1, "loop", workload.run_latency, argvs) for argvs in workload.latency_chunks],
    }
    schedule = sorted(
        ((i + 0.5) / len(tasks), rank, name, i)
        for rank, (name, tasks) in enumerate(streams.items())
        for i in range(len(tasks))
    )
    passes = {name: [] for name in streams}
    timeline = []
    for *_, name, i in schedule:
        cores, kind, fn, *args = streams[name][i]
        timed = clock.time(fn, *args, tally, cores=cores, kind=kind)
        passes[name].append(timed)
        timeline.append(timed)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def rate(name: str) -> float:
        return statistics.median(units / clock.scaled_s(ticket) for (units, _), ticket in passes[name])

    samples = [ms * clock.factor(ticket) for (_, call_ms), ticket in timeline for ms in call_ms]
    n = max(1, len(samples) // P95_BLOCK)
    blocks = [samples[k * len(samples) // n:(k + 1) * len(samples) // n] for k in range(n)]
    return {
        "cases_per_s": rate("cold"),
        "cases_per_s_pool": rate("pool"),
        "rerun_cases_per_s": rate("rerun"),
        "cli_ms_p50": statistics.median(samples),
        "cli_ms_p95": statistics.median(statistics.quantiles(block, n=20)[18] for block in blocks),
        "peak_rss_mb": (own + children) / 1024,
    }


def fraction_new_calls(workload, tally) -> tuple[int, int]:
    """Units run and exact `Fraction.__new__` calls, counted by cProfile over the profiled subset."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        units = workload.profiled_pass(tally)
    finally:
        profiler.disable()
    calls = sum(
        stat[1]
        for (filename, _, function), stat in pstats.Stats(profiler).stats.items()
        if function == "__new__" and os.path.basename(filename) == "fractions.py"
    )
    return units, calls


def per_layer(workload, tally, e2e: dict, import_s: float, env: dict, clock) -> dict:
    """Every per-layer metric, from one traced pass and the untraced passes around it.

    The traced pass goes first, so that it meets the sign-table cache as the
    untraced passes left it.  It also warms whatever the subset touches, so
    the tracing overhead compares a second traced pass with an untraced one.
    """

    def traced_pass():
        tracer = Tracer(workload.case_root)
        tracer.install()
        try:
            units, ticket = clock.time(workload.traced_pass, tally)
        finally:
            tracer.uninstall()
        return tracer, units, ticket

    before = iteration._cached_tables.cache_info()
    tracer, units, traced = traced_pass()
    after = iteration._cached_tables.cache_info()
    plain = clock.time(workload.traced_pass, tally)[1]
    retraced = traced_pass()[2]
    leftover = installed_wrappers()
    tally.check(not leftover, f"wrappers left installed: {leftover}")
    tracer.write(os.path.join(OUT, f"spans-{workload.name}.tsv"))

    counts = tracer.counts
    hits, misses = after.hits - before.hits, after.misses - before.misses
    grid = workload.case_root.startswith("verify.check_")
    profiled, fraction_new = fraction_new_calls(workload, tally)
    if isinstance(workload, CliCalls):
        main_us, ticket = clock.time(workload.main_us_by_command)
        main_us = {command: us * clock.factor(ticket) for command, us in main_us.items()}
    else:
        main_us = {}
    interpreter_s = median_subprocess_s("pass", env, clock)
    factor, traced_s = clock.factor(traced), clock.scaled_s(traced)
    self_us = {layer: us * factor for layer, us in tracer.self_times_us().items()}
    metrics = {f"{layer}.self_us": self_us.get(layer, 0.0) / units for layer in SELF_TIMED}
    metrics.update({
        "iteration.oracle_slopes.calls": counts["iteration.oracle_slopes"],
        "iteration.joins_per_case": counts["joins"] / units,
        "iteration.sign_tables.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "frames.homology_ops_per_case": counts["homology_ops"] / units,
        "slopes.fraction_new.per_case": fraction_new / profiled,
        "verify.dispatch.self_us_per_case":
            (traced_s * 1e6 - tracer.total_us(workload.case_root) * factor) / units if grid else 0.0,
        "verify.pool.scaling_efficiency": e2e["cases_per_s_pool"] / (WORKERS * e2e["cases_per_s"]),
        "catalog.lines_loaded": counts["lines_loaded"],
        "catalog.bytes_appended": counts["bytes_appended"],
        "catalog.unique_ratio":
            counts["catalog.entry_dict"] / counts["iteration.assemble_invariants"]
            if counts["iteration.assemble_invariants"] else 0.0,
        "cli.main.self_us_per_point": self_us.get("cli.main", 0.0) / units,
        "cli.interpreter_ms": interpreter_s * 1000,
        "cli.import_ms": import_s * 1000,
        **{f"cli.main_us.{command}": main_us.get(command, 0.0) for command in CLI_COMMANDS},
        "trace.overhead_ratio": clock.scaled_s(retraced) / clock.scaled_s(plain) - 1,
    })
    return metrics


def report(args, workload, metrics: dict, units: dict, tally, speed: float) -> dict:
    meta = {
        "workload": args.workload,
        "unit": workload.unit,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": NPROC,
        "workers": WORKERS,
        "wall_over_scaled": round(speed, 4),
    }
    print("# " + " ".join(f"{key}={value}" for key, value in meta.items()))
    for name, value in metrics.items():
        print(f"{name:<42} {value:>16.6f} {units[name]}")
    error_rate = tally.failed / tally.attempted
    print(f"{'error_rate':<42} {error_rate:>16.6f} ratio ({tally.failed} of {tally.attempted} outputs wrong)")
    for failure in tally.failures:
        print(f"! {failure}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as handle:
        json.dump({**meta, "error_rate": error_rate, **result}, handle, indent=1)
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    # Its value has no upper bound; every pool here gets WORKERS explicitly.
    os.environ.pop("TUNNELSLOPES_WORKERS", None)
    os.makedirs(OUT, exist_ok=True)
    scratch = os.path.join(OUT, f"scratch-{os.getpid()}")
    os.makedirs(scratch)
    try:
        env = workloads.child_env()
        with Clock(env) as clock:
            workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds, scratch)
            tally = workloads.Tally()
            setup_s, import_s = measure_setup(workload, env, clock)
            # The inputs and expected outputs stay alive all run; keep the
            # collector from rescanning them, as a process holding only the
            # program's own objects would not.
            gc.collect()
            gc.freeze()
            e2e = {"setup_s": setup_s, **end_to_end(workload, tally, clock)}
            if args.trace:
                metrics, units = per_layer(workload, tally, e2e, import_s, env, clock), PER_LAYER
            else:
                metrics, units = e2e, END_TO_END
        workloads.readme_checks(tally)
        workload.final_checks(tally)
    finally:
        gc.unfreeze()
        shutil.rmtree(scratch, ignore_errors=True)
    metrics = {name: metrics[name] for name in units}
    result = report(args, workload, metrics, units, tally, clock.wall_over_scaled())
    print(json.dumps(result))
    return 0 if result["correct"] else 1
