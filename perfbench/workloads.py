"""The four benchmark workloads.

Each workload builds its inputs from the seed as plain tuples and argv
lists, runs them through the public functions of `tunnelslopes`, and checks
every output it can.  A workload has one unit of work (a grid case, an
enumerate point or a CLI call) and splits its inputs into chunks, so that
every phase yields one rate per chunk and reports their median:

* `chunks`, run at 1 worker: once as the cold pass, once more as the rerun;
* `pool_chunks`, run at `WORKERS` workers through `verify.ordered_map`
  (`run_oracle_grid` uses it too);
* `latency_chunks`: groups of single CLI commands of the workload's kind, run
  in process (`cli-calls` times its subprocesses in its passes instead);
* `traced_pass` / `profiled_pass`: bounded subsets for the traced run.

`run(chunk, workers, tally)` returns the units done and the wall times of
any CLI subprocesses it ran.  Every phase reports what it checked to a
`Tally`; checks that need more than the phase's own outputs run in
`final_checks`, outside every timed window.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
from math import gcd

import tunnelslopes
from tunnelslopes import catalog, cli, frames, iteration, verify

NPROC = len(os.sched_getaffinity(0))
WORKERS = min(NPROC, os.cpu_count() or 1)

KINDS = tuple(kind.value for kind in iteration.SequenceKind)
SPLIT_KINDS = tuple(kind.value for kind in frames.SplitKind)
LATENCY_GROUP = 10  # in-process commands timed between two calibrations
LATENCY_PER_SECOND = 40  # in-process commands per run second: at 20 s, 40 of 800 lie beyond p95


def child_env() -> dict:
    """Environment for `python -m tunnelslopes` children: this checkout's package, UTF-8 stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(tunnelslopes.__file__))
    env["PYTHONIOENCODING"] = "utf-8"
    return env


class Tally:
    """Outputs checked and outputs found wrong, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def count(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += min(failed, attempted)
        if failed and len(self.failures) < 20:
            self.failures.append(f"{what}: {failed} of {attempted} wrong")

    def check(self, ok: bool, what: str) -> None:
        self.count(1, 0 if ok else 1, what)


def quiet_main(argv: list[str]) -> int:
    """`cli.main` in this process, with stdout sent to os.devnull."""
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        return cli.main(argv)


def captured_main(argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def valid_frames(bound: int) -> list[tuple[int, int, int, int]]:
    """Frames in the box, found without the package: coprime pairs, determinant +-1."""
    rng = range(-bound, bound + 1)
    return [
        (p, q, r, s)
        for p in rng for q in rng if gcd(p, q) == 1
        for r in rng for s in rng if gcd(r, s) == 1 and abs(p * s - q * r) == 1
    ]


def torus_frames(bound: int) -> list[tuple[int, int, int, int]]:
    """Frames with no warning flag, one per symmetry class.

    Swapping the constituents or transposing both pairs gives a frame whose
    chains repeat the same invariants, so a catalog of both would mostly
    deduplicate; keeping one frame per class keeps the share of unique
    lines close to the same for every seed.
    """
    out = []
    for p, q, r, s in valid_frames(bound):
        if p + r <= 2 or q + s <= 2:
            continue
        if (p, q, r, s) == min((p, q, r, s), (q, p, s, r), (r, s, p, q), (s, r, q, p)):
            out.append((p, q, r, s))
    return out


def frame_text(frame) -> str:
    return ",".join(str(v) for v in frame)


@functools.lru_cache(maxsize=None)
def nonzero_values(bound: int) -> tuple[int, ...]:
    return tuple(n for n in range(-bound, bound + 1) if n)


def nonzero(rng: random.Random, bound: int) -> int:
    return rng.choice(nonzero_values(bound))


def int_text(values) -> str:
    return ",".join(str(n) for n in values)


def split(items: list, size: int) -> list[list]:
    return [items[i:i + size] for i in range(0, len(items), size)]


def read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def invariant_keys(entries) -> list[str]:
    return [json.dumps(entry["invariants"], separators=(",", ":")) for entry in entries]


class Workload:
    name = ""
    unit = ""
    case_root = ""  # the layer whose outermost call starts a case in a trace
    latency_what = ""
    calibration = "loop"  # the kind of `clock` calibration its chunks get

    def __init__(self, seed: int, seconds: int, scratch: str):
        self.seed = seed
        self.seconds = seconds
        self.scratch = scratch
        self.latency_chunks: list[list[list[str]]] = []

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, chunk, workers: int, tally: Tally) -> tuple[int, list[float]]:
        raise NotImplementedError

    def run_latency(self, argvs, tally: Tally) -> tuple[int, list[float]]:
        """Time single in-process CLI commands; returns their count and wall ms."""
        samples = []
        for argv in argvs:
            start = time.perf_counter()
            code = quiet_main(argv)
            samples.append((time.perf_counter() - start) * 1000)
            tally.check(code == 0, f"{self.latency_what} exit code")
        return len(argvs), samples

    def final_checks(self, tally: Tally) -> None:
        pass


class OracleGrid(Workload):
    """`verify.run_oracle_grid` over a fixed box, once per chunk; the seed picks latency points."""

    name = "oracle-grid"
    unit = "case"
    case_root = "verify.check_oracle_case"
    latency_what = "iterate --verify"
    box = (1, 2, 2)
    profile_box = (1, 2, 1)
    chunks_per_second = 1.0
    pool_repeats = 2

    def setup(self) -> None:
        self.expected = {box: expected_oracle_cases(*box) for box in (self.box, self.profile_box)}
        self.chunks = [self.box] * max(2, round(self.seconds * self.chunks_per_second))
        self.pool_chunks = self.chunks * self.pool_repeats
        rng = random.Random(self.seed)
        pool = valid_frames(self.box[0])
        argvs = [
            ["iterate", f"--frame={frame_text(rng.choice(pool))}", "--kind", rng.choice(KINDS),
             f"--twists={int_text(nonzero(rng, self.box[2]) for _ in range(rng.randint(1, self.box[1])))}",
             "--verify"]
            for _ in range(LATENCY_PER_SECOND * self.seconds)
        ]
        self.latency_chunks = split(argvs, LATENCY_GROUP)

    def run(self, box, workers, tally):
        result = verify.run_oracle_grid(*box, workers=workers)
        expected = self.expected[box]
        tally.count(expected, len(result.failures) + abs(result.cases - expected), f"oracle grid {box}")
        return result.cases, []

    def traced_pass(self, tally):
        return self.run(self.box, 1, tally)[0]

    def profiled_pass(self, tally):
        return self.run(self.profile_box, 1, tally)[0]


def expected_oracle_cases(frame_bound: int, max_len: int, n_bound: int) -> int:
    twist_count = sum((2 * n_bound) ** length for length in range(1, max_len + 1))
    return len(valid_frames(frame_bound)) * len(KINDS) * twist_count


class CorrespondenceSampled(Workload):
    """Seeded continued fractions, depth 0-9, turns in [-40, 40] without 0."""

    name = "correspondence-sampled"
    unit = "case"
    case_root = "verify.check_correspondence_case"
    latency_what = "two-bridge"
    cases_per_second = 2000
    chunk_size = 1000
    pool_chunk_size = 2500
    pool_repeats = 2
    max_depth = 9
    turn_bound = 40

    def setup(self) -> None:
        rng = random.Random(self.seed)

        def draw(count):
            out = []
            for _ in range(count):
                length = rng.randint(1, self.max_depth + 1)
                signs = tuple(rng.choice((-1, 1)) for _ in range(length))
                out.append((signs, tuple(nonzero(rng, self.turn_bound) for _ in range(length))))
            return out

        size = self.cases_per_second * self.seconds
        cases = draw(size)
        self.chunks = split(cases, self.chunk_size)
        # Each pool chunk starts a pool, so pool chunks are longer, and the
        # pool pass runs the cases twice, so that its median has as many
        # chunks to draw on as the other passes.
        self.pool_chunks = split(cases, self.pool_chunk_size) * self.pool_repeats
        # Fresh draws, so the traced subset meets the sign-table cache as a new batch would.
        self.trace_cases = draw(size // 4)
        commands = ("slopes", "to-twists") * (LATENCY_PER_SECOND * self.seconds // 2)
        argvs = [
            ["two-bridge", command, f"--a={int_text(signs)}", f"--b={int_text(turns)}"]
            for (signs, turns), command in zip(cases, commands)
        ]
        self.latency_chunks = split(argvs, LATENCY_GROUP)

    def run(self, cases, workers, tally):
        results = verify.ordered_map(verify.check_correspondence_case, cases, workers=workers)
        tally.count(len(cases), sum(result is not None for result in results), "correspondence cases")
        return len(cases), []

    def traced_pass(self, tally):
        return self.run(self.trace_cases, 1, tally)[0]

    def profiled_pass(self, tally):
        return self.run(self.trace_cases[: len(self.trace_cases) // 5], 1, tally)[0]


class CatalogEnumerate(Workload):
    """`cli.main(["enumerate", ...])` for seeded frames into a fresh catalog per chunk.

    A chunk is a set of frames and its catalog file.  The cold pass writes
    each chunk's catalog; the rerun enumerates the same frames into the
    full catalog, reloading it once per frame and appending nothing.
    """

    name = "catalog-enumerate"
    unit = "point"
    case_root = "iteration.assemble_invariants"
    latency_what = "enumerate (small)"
    frame_bound = 6
    frame_count = 4
    depth = 3
    n_range = 3
    chunks_per_second = 0.4
    pool_repeats = 2

    def setup(self) -> None:
        rng = random.Random(self.seed)
        pool = torus_frames(self.frame_bound)
        self.chunks = [
            (f"chunk-{i}", [frame_text(f) for f in rng.sample(pool, self.frame_count)])
            for i in range(max(2, round(self.seconds * self.chunks_per_second)))
        ]
        # Each pool repeat enumerates into catalogs of its own, so every pool
        # chunk is a cold pass.
        self.pool_chunks = [
            (f"{label}-r{rep}", frame_list) for rep in range(self.pool_repeats) for label, frame_list in self.chunks
        ]
        self.cold_sizes: dict[str, int] = {}
        # The small commands enumerate into os.devnull, which reads as an
        # empty catalog, so their times hold no file-system noise.
        argvs = [
            ["enumerate", "--catalog", os.devnull, f"--frame={frame_text(rng.choice(pool))}",
             "--kind", rng.choice(KINDS), "--depth", "2", "--n-range", "2"]
            for _ in range(LATENCY_PER_SECOND * self.seconds)
        ]
        self.latency_chunks = split(argvs, LATENCY_GROUP)

    def _path(self, label: str) -> str:
        return os.path.join(self.scratch, f"{label}.jsonl")

    def _argv(self, path: str, frame: str) -> list[str]:
        return ["enumerate", "--catalog", path, f"--frame={frame}", "--depth", str(self.depth),
                "--n-range", str(self.n_range)]

    def _points(self, frame_list) -> int:
        return len(KINDS) * sum((2 * self.n_range) ** d for d in range(1, self.depth + 1)) * len(frame_list)

    def _enumerate(self, path: str, frame_list, tally: Tally) -> int:
        codes = [quiet_main(self._argv(path, frame)) for frame in frame_list]
        tally.count(len(codes), sum(code != 0 for code in codes), "enumerate exit code")
        return self._points(frame_list)

    def run(self, chunk, workers, tally):
        label, frame_list = chunk
        if workers > 1:
            jobs = [self._argv(self._path(f"{label}-pool-{j}"), frame) for j, frame in enumerate(frame_list)]
            codes = list(verify.ordered_map(quiet_main, jobs, workers=workers, chunksize=1))
            tally.count(len(codes), sum(code != 0 for code in codes), "pooled enumerate exit code")
            return self._points(frame_list), []
        path = self._path(label)
        points = self._enumerate(path, frame_list, tally)
        size = os.path.getsize(path)
        if label in self.cold_sizes:
            tally.check(size == self.cold_sizes[label], "rerun appended to the catalog")
        else:
            self.cold_sizes[label] = size
        return points, []

    def traced_pass(self, tally):
        """One chunk's frames, cold and then rerun, into a catalog of their own."""
        path = self._path(f"trace-{time.perf_counter_ns()}")
        try:
            return sum(self._enumerate(path, self.chunks[0][1], tally) for _ in range(2))
        finally:
            os.remove(path)

    def profiled_pass(self, tally):
        path = self._path("profile")
        try:
            return self._enumerate(path, self.chunks[0][1][:1], tally)
        finally:
            os.remove(path)

    def final_checks(self, tally):
        """Recompute every entry with both engines; pooled catalogs hold the same invariants.

        Chunks share frames, so each distinct descriptor is recomputed once,
        across `WORKERS` processes, and every entry that carries it is
        compared with that result.
        """
        catalogs = {label: read_jsonl(self._path(label)) for label, _ in self.chunks}
        descriptors = {
            json.dumps(entry["descriptor"], sort_keys=True): entry["descriptor"]
            for entries in catalogs.values() for entry in entries
        }
        recomputed = dict(zip(
            descriptors, verify.ordered_map(recompute, list(descriptors.values()), workers=WORKERS)
        ))
        for label, frame_list in self.chunks:
            entries = catalogs[label]
            keys = invariant_keys(entries)
            tally.check(len(set(keys)) == len(keys), "duplicate invariants in the catalog")
            wrong = 0
            for entry in entries:
                expected = recomputed[json.dumps(entry["descriptor"], sort_keys=True)]
                wrong += (
                    expected is None or expected["invariants"] != entry["invariants"]
                    or expected["frame"] not in frame_list
                )
            tally.count(len(entries), wrong, "catalog entries recomputed with verify=True")
            for rep in range(self.pool_repeats):
                pooled = set()
                for j in range(len(frame_list)):
                    pooled.update(invariant_keys(read_jsonl(self._path(f"{label}-r{rep}-pool-{j}"))))
                tally.check(pooled == set(keys), "pooled catalogs differ from the sequential one")


def recompute(descriptor: dict) -> dict | None:
    """An entry's frame and invariants computed afresh by both engines, or None if that fails."""
    try:
        frame, kind, twists, bit, from_trivial = catalog.parse_descriptor(descriptor)
        invariants = iteration.assemble_invariants(frame, kind, twists, bit, from_trivial, verify=True)
    except (ValueError, iteration.EngineMismatchError):
        return None
    return {"frame": frame.text(), "invariants": invariants.to_dict()}


def run_cli(job) -> tuple[int, bytes, float]:
    """One `python -m tunnelslopes` subprocess: exit code, stdout, wall ms."""
    argv, env = job
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "tunnelslopes", *argv], capture_output=True, env=env, check=False)
    return proc.returncode, proc.stdout, (time.perf_counter() - start) * 1000


class CliCalls(Workload):
    """A seeded mix of one-shot CLI commands, each a fresh interpreter."""

    name = "cli-calls"
    unit = "call"
    case_root = "cli.main"
    calibration = "start"
    calls_per_second = 5
    chunk_size = 10
    pool_chunk_size = 10

    def setup(self) -> None:
        rng = random.Random(self.seed)
        pool = valid_frames(3)

        def twists():
            return int_text(nonzero(rng, 5) for _ in range(rng.randint(1, 4)))

        def descriptor():
            return json.dumps({"frame": frame_text(rng.choice(pool)), "kind": rng.choice(KINDS), "twists": twists()})

        def cf_args():
            length = rng.randint(1, 4)
            signs = [rng.choice((-1, 1)) for _ in range(length)]
            return [f"--a={int_text(signs)}", f"--b={int_text(nonzero(rng, 5) for _ in range(length))}"]

        makers = (
            lambda: ["split", f"--frame={frame_text(rng.choice(pool))}", "--kind", rng.choice(SPLIT_KINDS),
                     f"--n={nonzero(rng, 5)}"],
            lambda: ["iterate", f"--frame={frame_text(rng.choice(pool))}", "--kind", rng.choice(KINDS),
                     f"--twists={twists()}", "--trace", "--verify"],
            lambda: ["two-bridge", "slopes", *cf_args()],
            lambda: ["compare", f"--left={descriptor()}", f"--right={descriptor()}"],
        )
        self.argvs = [rng.choice(makers)() for _ in range(self.calls_per_second * self.seconds)]
        self.expected = {tuple(argv): captured_main(argv) for argv in self.argvs}
        self.env = child_env()
        self.chunks = split(self.argvs, self.chunk_size)
        # The pool pass takes half the commands: the passes at one worker
        # already need every command for p95, and a run has to stay short.
        self.pool_chunks = split(self.argvs[: len(self.argvs) // 2], self.pool_chunk_size)

    def run(self, argvs, workers, tally):
        jobs = [(argv, self.env) for argv in argvs]
        if workers > 1:
            results = list(verify.ordered_map(run_cli, jobs, workers=workers, chunksize=1))
        else:
            results = [run_cli(job) for job in jobs]
        for argv, (code, stdout, _) in zip(argvs, results):
            expected_code, expected_out = self.expected[tuple(argv)]
            tally.check(code == expected_code == 0 and stdout == expected_out.encode("utf-8"),
                        "subprocess output differs from cli.main")
        return len(argvs), [ms for _, _, ms in results] if workers == 1 else []

    def _in_process(self, tally: Tally) -> int:
        wrong = sum(captured_main(argv) != self.expected[tuple(argv)] for argv in self.argvs)
        tally.count(len(self.argvs), wrong, "in-process cli.main")
        return len(self.argvs)

    def traced_pass(self, tally):
        return self._in_process(tally)

    def profiled_pass(self, tally):
        return self._in_process(tally)

    def main_us_by_command(self) -> dict[str, float]:
        """Median in-process `cli.main` wall time per command, in microseconds."""
        by_command: dict[str, list[float]] = {}
        for argv in self.argvs:
            start = time.perf_counter()
            quiet_main(argv)
            by_command.setdefault(argv[0], []).append((time.perf_counter() - start) * 1e6)
        return {command: statistics.median(values) for command, values in by_command.items()}


def readme_checks(tally: Tally) -> None:
    """The outputs the README documents, as golden values."""
    code, out = captured_main(["split", "--frame", "2,3,1,2", "--kind", "drop-lambda", "--n", "1"])
    tally.check(code == 0 and json.loads(out)["slope"] == "11/1", "README split slope 11/1")
    code, out = captured_main(
        ["iterate", "--frame", "1,0,0,1", "--kind", "drop-rho-pure", "--twists", "2,3", "--from-trivial", "--verify"]
    )
    invariants = json.loads(out)["invariants"] if code == 0 else {}
    tally.check(invariants.get("first") == "[2/5]", "README iterate first [2/5]")
    tally.check(invariants.get("rest", [None])[0] == "-5/3", "README iterate rest -5/3")
    try:
        invariants = iteration.assemble_invariants(
            frames.validate_frame(2, 3, 1, 2), iteration.SequenceKind.DROP_RHO_PURE, (2, 1), verify=True
        ).to_dict()
    except iteration.EngineMismatchError:
        invariants = {}
    tally.check(invariants.get("first") == "41/2", "README library first 41/2")
    tally.check(invariants.get("rest", [None])[0] == "-7/1", "README library rest -7/1")


WORKLOADS = {w.name: w for w in (OracleGrid, CorrespondenceSampled, CatalogEnumerate, CliCalls)}
