import argparse
import importlib.util
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from itertools import takewhile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tunnelslopes import (
    SequenceKind,
    SimpleSlope,
    Slope,
    TunnelInvariants,
    oracle_slopes,
    validate_frame,
)
from tunnelslopes.catalog import load_entries, recompute_invariants
from tunnelslopes import cli, frames, iteration, two_bridge, verify
from tunnelslopes.cli import main

REPLAY_PATH = Path(__file__).resolve().parent.parent / "tools" / "replay.py"


def _load_replay():
    spec = importlib.util.spec_from_file_location("tools_replay", REPLAY_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the `--opt=--` argvs and the last stderr line of each, one table that `tools/replay.py` also replays
USAGE_ERRORS = _load_replay().USAGE_ERRORS
# a flag given `=--`, or `=--` followed by a bare value: neither may turn into a valid call
NEVER_VALID = [(argv, last) for argv, last in USAGE_ERRORS if "ignored" in last or argv[-2].endswith("=--")]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_split(capsys):
    code, out, err = run_cli(capsys, "split", "--frame", "2,3,1,2", "--kind", "drop-lambda", "--n", "1")
    assert code == 0 and err == ""
    record = json.loads(out)
    assert list(record) == ["frame", "kind", "n", "slope", "coords", "flags"]
    assert record["slope"] == "11/1"
    assert record["coords"] == "(ρ,ρ⁰)"
    assert record["flags"] == []


def test_split_negative_twist_equals_form(capsys):
    code, out, _ = run_cli(capsys, "split", "--frame", "2,3,1,2", "--kind", "drop-lambda", "--n=-1")
    assert code == 0
    assert json.loads(out)["slope"] == "9/1"


def test_iterate_and_determinism(capsys):
    argv = (
        "iterate", "--frame", "1,0,0,1", "--kind", "drop-rho-pure",
        "--twists", "2,3", "--from-trivial",
    )
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    record = json.loads(out)
    assert record["invariants"] == {"first": "[2/5]", "rest": ["-5/3"], "binary": [0, 0]}
    assert record["descriptor"]["from_trivial"] is True
    assert record["flags"] == ["degenerate-frame"]
    code2, out2, _ = run_cli(capsys, *argv)
    assert (code2, out2) == (code, out)


def test_iterate_trace_lines(capsys):
    code, out, _ = run_cli(
        capsys, "iterate", "--frame", "2,3,1,2", "--kind", "drop-rho-pure",
        "--twists", "2,1", "--trace",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    _, trace = oracle_slopes(validate_frame(2, 3, 1, 2), SequenceKind.DROP_RHO_PURE, (2, 1), trace=True)
    assert [json.loads(line) for line in lines[:2]] == [
        {
            "k": step.k,
            "c_prev": list(step.c_prev.pair()),
            "upper": list(step.upper.pair()),
            "lower": list(step.lower.pair()),
            "linking": step.linking,
            "slope": step.slope.text(),
        }
        for step in trace
    ]
    assert json.loads(lines[2])["invariants"]["first"] == "41/2"


def test_iterate_verify_flag(capsys):
    code, out, _ = run_cli(
        capsys, "iterate", "--frame", "2,3,1,2", "--kind", "lift-lambda-mixed-tau",
        "--twists=-2,3,-4", "--verify",
    )
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_iterate_from_trivial_rejects_other_frames(capsys):
    code, _, err = run_cli(
        capsys, "iterate", "--frame", "2,3,1,2", "--kind", "drop-rho-pure",
        "--twists", "2", "--from-trivial",
    )
    assert code == 3
    assert "identity frame" in err


def test_enumerate_from_trivial_refuses_the_frame_before_reading_the_catalog(tmp_path, capsys):
    # the frame rule is checked once, before the catalog is read, so a malformed line's `path:lineno:` loses
    path = tmp_path / "catalog.jsonl"
    path.write_bytes(b'{"schema_version":1}\nnot json\n')
    code, out, err = run_cli(capsys, "enumerate", "--catalog", str(path), "--frame", "2,3,1,2", "--from-trivial")
    assert (code, out) == (3, "")
    assert err == "error: a chain out of the trivial knot needs the identity frame, up to sign\n"
    assert path.read_bytes() == b'{"schema_version":1}\nnot json\n'


def test_two_bridge_slopes(capsys):
    code, out, _ = run_cli(capsys, "two-bridge", "slopes", "--a", "1,1", "--b", "1,1")
    assert code == 0
    record = json.loads(out)
    assert record["cf"] == "[2,2,2,2]"
    assert record["invariants"] == {"first": "[2/5]", "rest": ["-5/3"], "binary": [0, 0]}


def test_two_bridge_to_twists(capsys):
    code, out, _ = run_cli(capsys, "two-bridge", "to-twists", "--a", "1,1", "--b", "1,1")
    assert code == 0
    assert json.loads(out)["twists"] == "2,3"


def test_two_bridge_from_twists(capsys):
    code, out, _ = run_cli(capsys, "two-bridge", "from-twists", "--twists=-1")
    assert code == 0
    record = json.loads(out)
    assert record["a"] == [-1] and record["b"] == [0]
    assert record["flags"] == ["b0-zero"]


def test_twists_round_trip_through_both_commands(capsys):
    counts = [n for n in range(-3, 4) if n]
    sequences = [[a] for a in counts] + [[a, b] for a in counts for b in counts]
    sequences += [[a, b, c] for a in counts for b in counts for c in counts]
    for twists in sequences:
        text = ",".join(map(str, twists))
        code, out, _ = run_cli(capsys, "two-bridge", "from-twists", f"--twists={text}")
        assert code == 0
        record = json.loads(out)
        a, b = (",".join(map(str, record[key])) for key in ("a", "b"))
        code, out, err = run_cli(capsys, "two-bridge", "to-twists", f"--a={a}", f"--b={b}")
        assert (code, err) == (0, "") and json.loads(out)["twists"] == text


def test_to_twists_without_preimage_exits_3(capsys):
    # signs[0] = 1 with turns[0] = 0 would need a leading twist count of 0
    code, out, err = run_cli(capsys, "two-bridge", "to-twists", "--a", "1", "--b", "0")
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("a, b", [("1", "0"), ("1,-1", "0,1")])
def test_to_twists_zero_leading_count_names_the_count(capsys, a, b):
    # the one check `cf_to_twists` keeps: the fraction itself is valid, its leading count is 0
    code, out, err = run_cli(capsys, "two-bridge", "to-twists", f"--a={a}", f"--b={b}")
    assert (code, out, err) == (3, "", "error: twist count must be nonzero\n")


def test_two_bridge_rejects_zero_leading_turn(capsys):
    code, _, err = run_cli(capsys, "two-bridge", "slopes", "--a", "1", "--b", "0")
    assert code == 3
    assert "leading turn" in err


def test_verify_correspondence_command(capsys):
    code, out, _ = run_cli(capsys, "verify-correspondence", "--max-d", "1", "--b-range", "1")
    assert code == 0
    assert json.loads(out.splitlines()[-1]) == {"checked": 20, "failures": 0}


def test_verify_oracle_command(capsys):
    code, out, _ = run_cli(capsys, "verify-oracle", "--frame-bound", "1", "--depth", "1", "--n-range", "2")
    assert code == 0
    summary = json.loads(out.splitlines()[-1])
    assert summary["mismatches"] == 0
    assert summary["cases"] > 0


def test_enumerate_catalog_cycle(tmp_path, capsys):
    path = tmp_path / "catalog.jsonl"
    argv = (
        "enumerate", "--catalog", str(path), "--frame", "2,3,1,2",
        "--kind", "drop-rho-pure", "--depth", "1", "--n-range", "2",
    )
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    summary = json.loads(lines[-1])
    assert summary == {"points": 4, "unique": 4, "appended": 4, "existing": 0}
    entries = load_entries(path)
    assert len(entries) == 4
    for entry in entries:
        assert recompute_invariants(entry).to_dict() == entry["invariants"]
    # a second identical run appends nothing but still reports every point
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out.splitlines()[-1]) == {
        "points": 4, "unique": 4, "appended": 0, "existing": 4,
    }
    assert load_entries(path) == entries


def test_enumerate_fails_before_printing_when_the_catalog_cannot_be_written(tmp_path, capsys):
    # the catalog is written before any entry line is printed
    argv = ("--frame", "2,3,1,2", "--kind", "drop-rho-pure", "--depth", "1", "--n-range", "1")
    code, out, err = run_cli(capsys, "enumerate", "--catalog", str(tmp_path / "missing" / "x.jsonl"), *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: [Errno 2] No such file or directory") and err.count("\n") == 1
    path = tmp_path / "x.jsonl"
    code, out, _ = run_cli(capsys, "enumerate", "--catalog", str(path), *argv)
    assert code == 0 and out.splitlines()[:-1] == path.read_text(encoding="utf-8").splitlines()
    assert json.loads(out.splitlines()[-1]) == {"points": 2, "unique": 2, "appended": 2, "existing": 0}
    # the null device keeps nothing, so it reads as the same fresh catalog every time
    assert run_cli(capsys, "enumerate", "--catalog", os.devnull, *argv) == (0, out, "")


def _address_space_400_mb():
    resource.setrlimit(resource.RLIMIT_AS, (400 * 2**20, 400 * 2**20))


@pytest.mark.parametrize("kind", ["endless-device", "fifo", "directory"])
def test_enumerate_refuses_a_catalog_that_is_not_a_regular_file(tmp_path, kind):
    # /dev/zero reads without end and a FIFO blocks its reader until a writer comes: each is refused before it is
    # opened.  The child runs under a time limit and a 400 MB address-space limit, so a regression fails here
    # instead of exhausting memory or hanging.
    if kind == "endless-device":
        path = "/dev/zero"
        if not os.path.exists(path):
            pytest.skip("no /dev/zero")
    elif kind == "fifo":
        if not hasattr(os, "mkfifo"):
            pytest.skip("no os.mkfifo")
        path = str(tmp_path / "fifo")
        os.mkfifo(path)
    else:
        path = str(tmp_path)
    argv = ["enumerate", "--catalog", path, "--frame", "2,3,1,2", "--depth", "1", "--n-range", "1"]
    proc = subprocess.run([sys.executable, "-m", "tunnelslopes", *argv], capture_output=True, text=True, timeout=30,
                          preexec_fn=_address_space_400_mb)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", f"error: {path}: a catalog must be a regular file\n")


def test_enumerate_kind_repeatable(tmp_path, capsys):
    path = tmp_path / "catalog.jsonl"
    code, out, _ = run_cli(
        capsys, "enumerate", "--catalog", str(path), "--frame", "2,3,1,2",
        "--kind", "drop-rho-pure", "--kind", "lift-rho-pure",
        "--depth", "1", "--n-range", "1",
    )
    assert code == 0
    assert json.loads(out.splitlines()[-1])["points"] == 4

    # a repeated kind is enumerated once: the same output as naming it once
    once = run_cli(capsys, "enumerate", "--catalog", str(tmp_path / "once.jsonl"), "--frame", "2,3,1,2",
                   "--kind", "drop-rho-pure", "--depth", "1", "--n-range", "1")
    twice = run_cli(capsys, "enumerate", "--catalog", str(tmp_path / "twice.jsonl"), "--frame", "2,3,1,2",
                    "--kind", "drop-rho-pure", "--kind", "drop-rho-pure", "--depth", "1", "--n-range", "1")
    assert twice == once
    assert json.loads(once[1].splitlines()[-1])["points"] == 2


def test_enumerate_without_kind_after_one_with_kind_covers_every_kind(tmp_path, capsys):
    # the kept parser gives each call fresh defaults: an earlier --kind does not carry over
    grid = ("--frame", "2,3,1,2", "--depth", "1", "--n-range", "1")
    run_cli(capsys, "enumerate", "--catalog", str(tmp_path / "one.jsonl"), "--kind", "drop-rho-pure", *grid)
    code, out, _ = run_cli(capsys, "enumerate", "--catalog", str(tmp_path / "all.jsonl"), *grid)
    assert code == 0 and json.loads(out.splitlines()[-1])["points"] == 16


def test_compare_equal_and_distinct(capsys):
    left = json.dumps({"frame": "1,0,0,1", "kind": "drop-rho-pure", "twists": "2"})
    twin = json.dumps({"frame": "-1,0,0,-1", "kind": "drop-rho-pure", "twists": "2"})
    code, out, _ = run_cli(capsys, "compare", "--left", left, "--right", twin)
    assert code == 0
    record = json.loads(out)
    assert record["equal"] is True
    assert record["left"] == record["right"]

    other = json.dumps({"frame": "1,0,0,1", "kind": "drop-rho-pure", "twists": "4"})
    code, out, _ = run_cli(capsys, "compare", "--left", left, "--right", other)
    assert code == 0
    assert json.loads(out)["equal"] is False


def test_validation_failures_exit_3(capsys):
    code, _, err = run_cli(capsys, "split", "--frame", "2,4,1,2", "--kind", "drop-rho", "--n", "1")
    assert code == 3 and "coprime" in err
    code, _, err = run_cli(capsys, "split", "--frame", "2,3,1,2", "--kind", "drop-rho", "--n", "0")
    assert code == 3 and "nonzero" in err
    code, _, err = run_cli(capsys, "iterate", "--frame", "2,3,1,2", "--kind", "drop-rho-pure", "--twists", "2,0")
    assert code == 3
    code, _, err = run_cli(capsys, "two-bridge", "slopes", "--a", "x", "--b", "1")
    assert code == 3 and "expected comma-separated integers" in err
    code, _, err = run_cli(capsys, "split", "--frame", "1,0,0,x", "--kind", "drop-rho", "--n", "1")
    assert code == 3 and err == "error: frame text needs four comma-separated integers, got '1,0,0,x'\n"


def _oracle_shifted_on_twist_1(original):
    """The oracle engine with its first slope moved by 1 whenever the first twist count is 1."""

    def wrong(frame, kind, twists, trace=False):
        slopes, steps = original(frame, kind, twists, trace=trace)
        if twists[0] == 1:
            slopes[0] = Slope(slopes[0].value + 1, slopes[0].coords)
        return slopes, steps

    return wrong


@pytest.mark.parametrize("flags", [("--verify",), ("--trace", "--verify")], ids=["verify", "trace-verify"])
def test_iterate_verify_mismatch_exits_1(capsys, monkeypatch, flags):
    # nothing is printed, not even a trace line, before the mismatch is found
    monkeypatch.setattr(iteration, "oracle_slopes", _oracle_shifted_on_twist_1(iteration.oracle_slopes))
    code, out, err = run_cli(
        capsys, "iterate", "--frame", "2,3,1,2", "--kind", "drop-rho-pure", "--twists", "1,2", *flags
    )
    assert (code, out) == (1, "")
    assert err.startswith("verification failure: engines disagree") and err.count("\n") == 1


@pytest.mark.parametrize(
    "flags, replays",
    [(("--trace", "--verify"), 1), (("--trace",), 1), (("--verify",), 1), ((), 0)],
    ids=["trace-verify", "trace", "verify", "neither"],
)
def test_iterate_replays_the_chain_at_most_once(capsys, flags, replays):
    # counted by code object, so that a call through any name bound to the function counts;
    # the closed form runs exactly once whatever the flags
    replay, closed = iteration.oracle_slopes.__code__, iteration.closed_form_slopes.__code__
    calls = {replay: 0, closed: 0}

    def count(frame, event, _):
        if event == "call" and frame.f_code in calls:
            calls[frame.f_code] += 1

    sys.setprofile(count)
    try:
        code = main(["iterate", "--frame", "2,3,1,2", "--kind", "drop-rho-pure", "--twists", "2,1", *flags])
    finally:
        sys.setprofile(None)
    out = capsys.readouterr().out
    assert code == 0 and len(out.splitlines()) == (3 if "--trace" in flags else 1)
    assert (calls[replay], calls[closed]) == (replays, 1)


def test_iterate_trace_alone_prints_engines_that_disagree(capsys, monkeypatch):
    # without --verify the trace is printed unchecked, so a disagreement can be read from it
    monkeypatch.setattr(iteration, "oracle_slopes", _oracle_shifted_on_twist_1(iteration.oracle_slopes))
    code, out, err = run_cli(
        capsys, "iterate", "--frame", "2,3,1,2", "--kind", "drop-rho-pure", "--twists", "1,2", "--trace"
    )
    assert (code, err) == (0, "")
    *steps, record = [json.loads(line) for line in out.splitlines()]
    assert [step["k"] for step in steps] == [0, 1]
    assert record["descriptor"]["twists"] == "1,2" and "verified" not in record


def test_verify_oracle_mismatch_exits_1(capsys, monkeypatch):
    monkeypatch.delenv("TUNNELSLOPES_WORKERS", raising=False)  # a patch does not reach pool workers
    monkeypatch.setattr(verify, "oracle_slopes", _oracle_shifted_on_twist_1(verify.oracle_slopes))
    code, out, _ = run_cli(capsys, "verify-oracle", "--frame-bound", "1", "--depth", "1", "--n-range", "1")
    assert code == 1
    *records, summary = [json.loads(line) for line in out.splitlines()]
    assert summary == {"cases": 640, "mismatches": 320}
    assert len(records) == 320
    for record in records:
        assert list(record) == ["frame", "kind", "twists", "closed", "replayed"]
        assert record["twists"] == "1"
        closed, replayed = Fraction(record["closed"][0]), Fraction(record["replayed"][0])
        assert replayed - closed == 1


def test_verify_correspondence_mismatch_exits_1(capsys, monkeypatch):
    original = two_bridge.semisimple_slopes

    def wrong(cf):
        invariants = original(cf)
        shifted = SimpleSlope(invariants.first.representative + Fraction(1, 7))
        return TunnelInvariants(shifted, invariants.rest, invariants.binary)

    monkeypatch.delenv("TUNNELSLOPES_WORKERS", raising=False)
    monkeypatch.setattr(two_bridge, "semisimple_slopes", wrong)
    code, out, _ = run_cli(capsys, "verify-correspondence", "--max-d", "0", "--b-range", "1")
    assert code == 1
    *records, summary = [json.loads(line) for line in out.splitlines()]
    assert summary == {"checked": 4, "failures": 4}
    assert [(record["a"], record["b"]) for record in records] == [([-1], [-1]), ([-1], [1]), ([1], [-1]), ([1], [1])]
    for record in records:
        assert list(record) == ["a", "b", "cf", "twists", "bridge", "chain", "match"]
        assert record["match"] is False
        assert record["bridge"]["first"] != record["chain"]["first"]


@pytest.mark.parametrize(
    "argv",
    [
        ("verify-oracle", "--frame-bound=-1"),
        ("verify-oracle", "--n-range", "0"),
        ("verify-correspondence", "--max-d=-1"),
        # bounds that would scan 2001^4 frames or build about 2^32 sign slices before finding no case
        ("verify-oracle", "--frame-bound", "1000", "--depth", "0"),
        ("verify-oracle", "--frame-bound", "0", "--depth", "30"),  # empty, though its twist part is past the cap
        ("verify-correspondence", "--max-d", "30", "--b-range", "0"),
        ("enumerate", "--frame", "2,3,1,2", "--depth", "0"),
        ("enumerate", "--frame", "2,3,1,2", "--n-range", "0"),
    ],
)
def test_empty_grid_exits_3(tmp_path, capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("an empty grid was run")

    # refused before any grid is built: the runners size their grids before they hand any slice on
    monkeypatch.setattr(verify, "_run_grid", refuse)
    path = tmp_path / "catalog.jsonl"
    if argv[0] == "enumerate":
        argv += ("--catalog", str(path))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error:") and err.count("\n") == 1 and "empty" in err
    assert not path.exists()


# far above the cap, so each would walk or check points until killed
OVERSIZE_GRIDS = [
    ("enumerate", "--frame", "2,3,1,2", "--depth", "40", "--n-range", "1"),
    ("enumerate", "--frame", "2,3,1,2", "--kind", "drop-rho-pure", "--depth", str(10**9), "--n-range", "1"),
    ("enumerate", "--frame", "1,0,0,1", "--depth", "2", "--n-range", "1000", "--from-trivial"),
    ("verify-correspondence", "--max-d", "30", "--b-range", "1"),
    ("verify-correspondence", "--max-d", "0", "--b-range", str(10**9)),
    ("verify-oracle", "--frame-bound", "1", "--depth", "30", "--n-range", "1"),
    ("verify-oracle", "--frame-bound", "1", "--depth", "1", "--n-range", str(10**8)),
    ("verify-oracle", "--frame-bound", "12", "--depth", "2", "--n-range", "5"),  # 2,920 frames x 8 kinds x 110 twists
]


@pytest.mark.parametrize("argv", OVERSIZE_GRIDS)
@pytest.mark.parametrize("existing", [False, True], ids=["fresh", "existing"])
def test_oversize_grid_exits_3_before_any_point(tmp_path, capsys, monkeypatch, argv, existing):
    def refuse(*args, **kwargs):
        raise AssertionError("an oversize grid ran a point")

    # `chain_walk` refuses its grid when called, so the walk it would hand on never starts
    monkeypatch.setattr(iteration, "prefix_walk", refuse)
    monkeypatch.setattr(verify, "check_correspondence_case", refuse)
    monkeypatch.setattr(verify, "check_oracle_case", refuse)
    path = tmp_path / "catalog.jsonl"
    if existing:
        path.write_bytes(b"not a catalog line, so reading it would fail\n")
    if argv[0] == "enumerate":
        argv += ("--catalog", str(path))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err.startswith("error:") and err.count("\n") == 1 and f"more than {iteration.GRID_CAP:,} points" in err
    assert path.exists() == existing
    if existing:
        assert path.read_bytes() == b"not a catalog line, so reading it would fail\n"


def test_the_grid_cap_admits_the_largest_grid_run_and_no_point_more():
    assert iteration.GRID_CAP >= 497_280  # `run_oracle_grid(1, 4, 3)`, ROADMAP item 4's target grid
    assert iteration._check_grid_size("grid", iteration.GRID_CAP, 1, 1) == iteration.GRID_CAP
    with pytest.raises(ValueError, match=f"more than {iteration.GRID_CAP:,} points"):
        iteration._check_grid_size("grid", iteration.GRID_CAP, 1, 2)
    for factor, ratio, levels in [(1, 0, 1), (1, 1, 0), (1, -2, 3), (1, 4, -1), (1, 0, 10**9), (0, 10**9, 10**9)]:
        with pytest.raises(ValueError, match="^the enumeration grid is empty; widen its bounds$"):
            iteration._check_grid_size("enumeration", factor, ratio, levels)


# the rows of the count tests these replaced, each with the summary key that reports its count
GRIDS_AT_THEIR_COUNT = [
    *[(["enumerate", "--frame", frame, "--depth", str(depth), "--n-range", str(n_range),
        *[f"--kind={kind}" for kind in kinds], *["--from-trivial"] * (frame == "1,0,0,1")], "points")
      for kinds, depth, n_range in [(["drop-rho-pure"], 1, 1), (["drop-rho-pure", "lift-rho-pure"], 3, 1), ([], 2, 2)]
      for frame in ["2,3,1,2", "1,0,0,1"]],
    *[(["verify-correspondence", "--max-d", str(max_d), "--b-range", str(b_range)], "checked")
      for max_d, b_range in [(0, 1), (0, 3), (1, 1), (1, 2), (2, 1)]],
    *[(["verify-oracle", "--frame-bound", str(bound), "--depth", str(depth), "--n-range", str(n_range)], "cases")
      for bound, depth, n_range in [(1, 1, 1), (1, 2, 1), (1, 1, 2), (2, 1, 1)]],
]


@pytest.mark.parametrize("argv, key", GRIDS_AT_THEIR_COUNT)
def test_each_grid_runs_with_its_count_as_the_cap_and_is_refused_one_below(tmp_path, capsys, monkeypatch, argv, key):
    def refuse(*args, **kwargs):
        raise AssertionError("a grid past the cap ran")

    path = tmp_path / "catalog.jsonl"
    if argv[0] == "enumerate":
        argv = [*argv, "--catalog", str(path)]
    code, out, err = run_cli(capsys, *argv)
    count = json.loads(out.splitlines()[-1])[key]
    assert (code, err) == (0, "") and count > 1
    # the count a run reports is the cap it fits: the same bytes again, from a fresh catalog
    path.unlink(missing_ok=True)
    monkeypatch.setattr(iteration, "GRID_CAP", count)
    assert run_cli(capsys, *argv) == (0, out, "")
    path.unlink(missing_ok=True)
    # one below, it is refused before any point or slice runs, and no catalog is written
    for module, name in [(iteration, "prefix_walk"), (verify, "_run_grid"), (verify, "check_oracle_case"),
                         (verify, "check_correspondence_case")]:
        monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(iteration, "GRID_CAP", count - 1)
    grid = "enumeration" if argv[0] == "enumerate" else "verification"
    message = f"error: the {grid} grid has more than {count - 1:,} points, the cap; narrow its bounds\n"
    assert run_cli(capsys, *argv) == (3, "", message)
    assert not path.exists()


def test_verify_oracle_scans_its_frame_box_once(capsys, monkeypatch):
    argv = ["verify-oracle", "--frame-bound", "1", "--depth", "1", "--n-range", "1"]
    _, expected, _ = run_cli(capsys, *argv)
    box, calls = verify.frames_in_box, []

    def counted(bound):
        calls.append(bound)
        return box(bound)

    monkeypatch.setattr(verify, "frames_in_box", counted)
    assert run_cli(capsys, *argv) == (0, expected, "")
    assert calls == [1]


# nested too deeply for the `json` module on every supported Python (3.12 and 3.13 still read 1,200 levels)
DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "line, message",
    [
        ("[1,2]", "must be a JSON object"),
        ('{"descriptor":{},"flags":[],"schema_version":1}', '"invariants"'),
        ('{"descriptor":{"frame":"2,3', "not a JSON line"),  # cut short, yet followed by a newline
        # True == 1 == 1.0, yet neither is the integer schema version
        ('{"descriptor":{},"invariants":{},"flags":[],"schema_version":true}', "schema_version True"),
        ('{"descriptor":{},"invariants":{},"flags":[],"schema_version":1.0}', "schema_version 1.0"),
        ('{"descriptor":{},"invariants":{},"flags":"unverified-bypass","schema_version":1}', '"flags"'),
        ('{"descriptor":{},"invariants":{},"flags":[1],"schema_version":1}', '"flags"'),
        ('{"invariants":{"first":"1/1"},"flags":[],"schema_version":1}', '"descriptor"'),
        ('{"descriptor":{},"invariants":{"first":"1/1","binary":[0]},"flags":[],"schema_version":1}', '"invariants"'),
        # invariant values of a shape the package never writes
        ('{"descriptor":{},"invariants":{"first":1,"rest":[],"binary":[0]},"flags":[],"schema_version":1}', '"invariants" first'),
        ('{"descriptor":{},"invariants":{"first":"0.5","rest":[],"binary":[0]},"flags":[],"schema_version":1}', '"invariants" first'),
        ('{"descriptor":{},"invariants":{"first":"1/2|x","rest":[],"binary":[0]},"flags":[],"schema_version":1}', '"invariants" first'),
        ('{"descriptor":{},"invariants":{"first":"1/2","rest":"","binary":[0]},"flags":[],"schema_version":1}', '"invariants" rest'),
        ('{"descriptor":{},"invariants":{"first":"1/2","rest":["1/2",3],"binary":[0,0,0]},"flags":[],"schema_version":1}', '"invariants" rest'),
        ('{"descriptor":{},"invariants":{"first":"1/2","rest":[],"binary":[true]},"flags":[],"schema_version":1}', '"invariants" binary'),
        ('{"descriptor":{},"invariants":{"first":"1/2","rest":[],"binary":[1.0]},"flags":[],"schema_version":1}', '"invariants" binary'),
        ('{"descriptor":{},"invariants":{"first":"1/2","rest":[],"binary":[2]},"flags":[],"schema_version":1}', '"invariants" binary'),
        # JSON the `json` module refuses with a RecursionError, and with a plain ValueError
        pytest.param(DEEP_JSON, "not a JSON line", id="deep-nesting"),
        pytest.param('{"descriptor":{},"invariants":{},"flags":[],"schema_version":' + "1" * 5000 + "}",
                     "not a JSON line", id="5000-digit-version"),
    ],
)
def test_enumerate_rejects_malformed_catalog_line(tmp_path, capsys, line, message):
    path = tmp_path / "catalog.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "enumerate", "--catalog", str(path), "--frame", "2,3,1,2", "--kind", "drop-rho-pure",
        "--depth", "1", "--n-range", "1",
    )
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {path}:1: ") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize(
    "data, lineno",
    [
        (b"\xff\n", 1),
        (b'{"a":1}\n\n{"b":"\xc3"}\n{"c":2}\n', 3),  # a cut two-byte character
    ],
)
def test_enumerate_rejects_non_utf8_catalog_line(tmp_path, capsys, data, lineno):
    path = tmp_path / "catalog.jsonl"
    path.write_bytes(data)
    code, out, err = run_cli(capsys, "enumerate", "--catalog", str(path), *ENUMERATE_SMALL)
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {path}:{lineno}: not a UTF-8 line") and err.count("\n") == 1


@pytest.mark.parametrize(
    "tail", [b'{"descriptor":"\xc3', b"[" * 100_000], ids=["non-utf8", "deep-nesting"]
)
def test_enumerate_skips_non_utf8_torn_last_line(tmp_path, capsys, tail):
    path = tmp_path / "catalog.jsonl"
    run_cli(capsys, "enumerate", "--catalog", str(path), *ENUMERATE_SMALL)
    whole = path.read_bytes()
    path.write_bytes(whole + tail)
    code, out, err = run_cli(capsys, "enumerate", "--catalog", str(path), *ENUMERATE_SMALL)
    assert code == 0 and out.endswith('"appended":0,"existing":4}\n')
    assert err == f"{path}:5: warning: skipping a last line cut short by an interrupted append\n"


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"from_trivial": "false"}, "from_trivial"),
        ({"from_trivial": 1}, "from_trivial"),
        ({"splitting_bit": 1.9}, "splitting_bit"),
        ({"splitting_bit": "1"}, "splitting_bit"),
        ({"splitting_bit": True}, "splitting_bit"),
        ({"splitting_bit": None}, "splitting_bit"),
        ({"splitting_bit": 2}, "splitting_bit"),
        ({"frame": 2}, "frame"),
        ({"kind": None}, "kind"),
        ({"twists": [2, 1]}, "twists"),
        ({"twists": True}, "twists"),
    ],
)
def test_compare_rejects_descriptor_types(capsys, extra, message):
    good = {"frame": "2,3,1,2", "kind": "drop-rho-pure", "twists": "2,1"}
    bad = json.dumps({**good, **extra})
    code, out, err = run_cli(capsys, "compare", "--left", json.dumps(good), "--right", bad)
    assert (code, out) == (3, "")
    assert err.startswith("error: descriptor ") and err.count("\n") == 1 and message in err


def test_compare_rejects_too_deep_a_descriptor(capsys):
    good = json.dumps({"frame": "2,3,1,2", "kind": "drop-rho-pure", "twists": "2,1"})
    code, out, err = run_cli(capsys, "compare", "--left", DEEP_JSON, "--right", good)
    assert (code, out) == (3, "")
    assert err.startswith("error: descriptor is not JSON: ") and err.count("\n") == 1


def test_compare_rejects_bool_twist_counts(capsys):
    good = {"frame": "2,3,1,2", "kind": "drop-rho-pure", "twists": "2,1"}
    bad = json.dumps({**good, "twists": "True,2"})
    code, out, err = run_cli(capsys, "compare", "--left", json.dumps(good), "--right", bad)
    assert (code, out) == (3, "")
    assert err.startswith("error: twist counts") and err.count("\n") == 1


ENUMERATE_SMALL = ("--frame", "2,3,1,2", "--kind", "drop-rho-pure", "--depth", "1", "--n-range", "2")


def test_enumerate_survives_torn_last_line(tmp_path, capsys):
    path = tmp_path / "catalog.jsonl"
    code, first_out, _ = run_cli(capsys, "enumerate", "--catalog", str(path), *ENUMERATE_SMALL)
    assert code == 0
    whole = path.read_bytes()
    assert whole.count(b"\n") == 4
    path.write_bytes(whole[:-30])  # an append cut short inside its last line
    code, out, err = run_cli(capsys, "enumerate", "--catalog", str(path), *ENUMERATE_SMALL)
    assert code == 0 and out == first_out.replace('"appended":4,"existing":0', '"appended":1,"existing":3')
    assert err == f"{path}:4: warning: skipping a last line cut short by an interrupted append\n"
    assert path.read_bytes() == whole  # the torn line was cut off before the append
    code, out, err = run_cli(capsys, "enumerate", "--catalog", str(path), *ENUMERATE_SMALL)
    assert code == 0 and err == "" and out.endswith('"appended":0,"existing":4}\n')


def test_messages_naming_a_path_with_a_newline_stay_on_one_line(tmp_path, capsys):
    # each stderr message is one line whatever the catalog path holds: the newline reads as a space
    path = tmp_path / "bad\nname.jsonl"
    shown = str(path).replace("\n", " ")
    path.write_text("not json\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "enumerate", "--catalog", str(path), *ENUMERATE_SMALL)
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {shown}:1: not a JSON line: ") and err.count("\n") == 1
    path.write_text('{"descriptor":', encoding="utf-8")  # only a torn last line
    code, out, err = run_cli(capsys, "enumerate", "--catalog", str(path), *ENUMERATE_SMALL)
    assert code == 0 and out.endswith('"appended":4,"existing":0}\n')
    assert err == f"{shown}:1: warning: skipping a last line cut short by an interrupted append\n"


def test_enumerate_dedup_ignores_catalog_key_order(tmp_path, capsys):
    # the same catalog rewritten with sorted keys, as `jq -S` would, is still the same catalog
    path = tmp_path / "catalog.jsonl"
    run_cli(capsys, "enumerate", "--catalog", str(path), *ENUMERATE_SMALL)
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("".join(json.dumps(json.loads(line), sort_keys=True) + "\n" for line in lines), encoding="utf-8")
    rewritten = path.read_bytes()
    code, out, err = run_cli(capsys, "enumerate", "--catalog", str(path), *ENUMERATE_SMALL)
    assert code == 0 and err == "" and out.endswith('"appended":0,"existing":4}\n')
    assert path.read_bytes() == rewritten


def test_catalog_line_missing_only_its_newline_is_kept(tmp_path, capsys):
    path = tmp_path / "catalog.jsonl"
    run_cli(capsys, "enumerate", "--catalog", str(path), "--frame", "2,3,1,2", "--kind", "drop-rho-pure",
            "--depth", "1", "--n-range", "1")
    whole = path.read_bytes()
    path.write_bytes(whole[:-1])
    assert len(load_entries(path)) == 2
    code, out, err = run_cli(capsys, "enumerate", "--catalog", str(path), *ENUMERATE_SMALL)
    assert code == 0 and err == "" and out.endswith('"appended":2,"existing":2}\n')
    assert path.read_bytes().startswith(whole) and len(load_entries(path)) == 4


def test_unexpected_exception_exits_4(capsys, monkeypatch):
    def broken(*args):
        raise KeyError("lost")

    # a name `_cmd_split` imports when it runs: the kept parser holds `_cmd_split` itself
    monkeypatch.setattr(frames, "splitting_tunnel_slope", broken)
    code, out, err = run_cli(capsys, "split", "--frame", "2,3,1,2", "--kind", "drop-rho", "--n", "1")
    assert (code, out) == (cli.EXIT_INTERNAL, "") and cli.EXIT_INTERNAL == 4
    assert err == "internal error: KeyError: 'lost'\n"


def test_engine_mismatch_outside_iterate_is_a_bug(capsys, monkeypatch):
    # exit 1 is `iterate --verify`'s alone: `compare` never checks the engines, so a mismatch there is a bug
    def broken(*args, **kwargs):
        raise iteration.EngineMismatchError("engines disagree")

    monkeypatch.setattr(iteration, "assemble_invariants", broken)
    descriptor = '{"frame":"2,3,1,2","kind":"drop-rho-pure","twists":"2,1"}'
    code, out, err = run_cli(capsys, "compare", "--left", descriptor, "--right", descriptor)
    assert (code, out) == (cli.EXIT_INTERNAL, "")
    assert err == "internal error: EngineMismatchError: engines disagree\n"


def test_zero_division_is_a_bug_not_bad_input(capsys, monkeypatch):
    # no command input divides by zero: every denominator the package reduces is odd or a nonzero n
    def broken(*args):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(two_bridge, "semisimple_slopes", broken)
    code, out, err = run_cli(capsys, "two-bridge", "slopes", "--a", "1", "--b", "1")
    assert (code, out) == (cli.EXIT_INTERNAL, "")
    assert err == "internal error: ZeroDivisionError: division by zero\n"


def test_bypass_validation_flag(capsys):
    code, out, _ = run_cli(
        capsys, "split", "--frame", "2,4,1,2", "--kind", "drop-rho", "--n", "1", "--bypass-validation"
    )
    assert code == 0
    assert "unverified-bypass" in json.loads(out)["flags"]


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["split", "--frame", "2,3,1,2"])
    assert info.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main(["iterate", "--frame", "2,3,1,2", "--kind", "no-such-kind", "--twists", "2"])
    assert info.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, last", [pytest.param(*entry, id=" ".join(entry[0])) for entry in USAGE_ERRORS if entry not in NEVER_VALID]
)
def test_double_dash_value_is_a_usage_error(capsys, argv, last):
    # Python versions read `--opt=--` differently (3.13 passes "--" on as the value); `main`
    # hands argparse the option with no value, so argparse itself reports it on every version,
    # with the command's own usage line, before any command sees it
    option = next(arg for arg in argv if arg.endswith("=--")).removesuffix("=--")
    prog = " ".join(["tunnelslopes", *takewhile(lambda arg: not arg.startswith("-"), argv)])
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    out, err = capsys.readouterr()
    assert info.value.code == 2 and out == ""
    assert err.startswith(f"usage: {prog} [-h] ")
    assert err.splitlines()[-1] == last == f"{prog}: error: argument {option}: expected one argument"


@pytest.mark.parametrize(
    "argv, last",
    [pytest.param(*entry, id="flag" if "ignored" in entry[1] else "value-follows") for entry in NEVER_VALID],
)
def test_double_dash_value_never_turns_valid(capsys, argv, last):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    out, err = capsys.readouterr()
    assert info.value.code == 2 and out == ""
    assert err.splitlines()[-1] == last and last.startswith(f"tunnelslopes {argv[0]}: error: ")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "tunnelslopes", "split", "--frame", "2,3,1,2", "--kind", "lift-rho", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["slope"] == "37/2"


def _read_then_close(argv, keep: int = 10, env=None) -> tuple[int, bytes, bytes]:
    """Run the CLI with stdout a pipe its reader closes after `keep` bytes: exit code, bytes read, stderr."""
    proc = subprocess.Popen([sys.executable, "-m", "tunnelslopes", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(keep) if keep else b""
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=120), head, err


def test_iterate_into_a_pipe_closed_early_exits_141_and_says_nothing():
    # 3,000 trace lines: far more than the pipe holds, so the writer meets the closed end
    twists = ",".join(["2", "-3", "1"] * 1000)
    argv = ["iterate", "--frame", "2,3,1,2", "--kind", "drop-rho-pure", f"--twists={twists}", "--trace"]
    assert _read_then_close(argv) == (141, b'{"k":0,"c_', b"")


def test_enumerate_into_a_pipe_closed_early_exits_141_with_its_catalog_complete(tmp_path, capsys):
    argv = ["--frame", "2,3,1,2", "--depth", "3", "--n-range", "3"]
    closed, full = tmp_path / "closed.jsonl", tmp_path / "full.jsonl"
    assert _read_then_close(["enumerate", "--catalog", str(closed), *argv]) == (141, b'{"descript', b"")
    assert main(["enumerate", "--catalog", str(full), *argv]) == 0
    assert len(capsys.readouterr().out) > 2**18  # far more than the pipe holds
    # the catalog is written before the first line is printed
    assert closed.read_bytes() == full.read_bytes()


def test_a_short_record_held_in_the_stdout_buffer_meets_the_closed_pipe_inside_main():
    # block-buffered stdout, closed before the child writes: `main`'s own flush meets the pipe, not the one at exit
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    argv = ["split", "--frame", "2,3,1,2", "--kind", "lift-rho", "--n", "2"]
    assert _read_then_close(argv, keep=0, env=env) == (141, b"", b"")


def test_one_shot_command_never_loads_the_process_pool():
    # modules already loaded at the start of `-c` are the bare interpreter's,
    # which a host's site .pth files may extend
    script = (
        "import sys\n"
        "bare = set(sys.modules)\n"
        "import json\n"
        "from tunnelslopes import cli\n"
        "code = cli.main(['split', '--frame', '2,3,1,2', '--kind', 'lift-rho', '--n', '2'])\n"
        "print(json.dumps([code, sorted(set(sys.modules) - bare)]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    split_line, modules_line = proc.stdout.splitlines()
    assert json.loads(split_line)["slope"] == "37/2"
    code, loaded = json.loads(modules_line)
    assert code == 0 and "tunnelslopes.frames" in loaded
    assert "tunnelslopes.verify" not in loaded
    assert [name for name in loaded if name.startswith(("concurrent.futures", "multiprocessing"))] == []
    # nor `dataclasses` and the `inspect` it pulls in: the value classes are written by hand
    assert [name for name in loaded if name.split(".")[0] in ("dataclasses", "inspect")] == []


def test_one_worker_grid_never_loads_the_process_pool():
    # with TUNNELSLOPES_WORKERS unset a grid runs on one worker, in process
    script = (
        "import sys\n"
        "bare = set(sys.modules)\n"
        "import io, json, contextlib\n"
        "from tunnelslopes import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['verify-oracle', '--frame-bound', '1', '--depth', '1', '--n-range', '1']),\n"
        "             cli.main(['verify-correspondence', '--max-d', '0', '--b-range', '1'])]\n"
        "print(json.dumps([codes, sorted(set(sys.modules) - bare)]))\n"
    )
    env = {key: value for key, value in os.environ.items() if key != "TUNNELSLOPES_WORKERS"}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout)
    assert codes == [0, 0] and "tunnelslopes.verify" in loaded
    assert [name for name in loaded if name.startswith(("concurrent.futures", "multiprocessing"))] == []


def test_verify_output_does_not_depend_on_worker_count(capsys, monkeypatch):
    grids = [
        ("verify-oracle", "--frame-bound", "1", "--depth", "2", "--n-range", "1"),
        ("verify-correspondence", "--max-d", "1", "--b-range", "1"),
    ]
    monkeypatch.delenv("TUNNELSLOPES_WORKERS", raising=False)
    serial = [run_cli(capsys, *argv)[:2] for argv in grids]
    monkeypatch.setenv("TUNNELSLOPES_WORKERS", "2")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    parallel = [run_cli(capsys, *argv)[:2] for argv in grids]
    assert parallel == serial
    assert [code for code, _ in serial] == [0, 0]


# each command's options, as its `-h` lists them
COMMAND_OPTIONS = {
    ("split",): ["--frame", "--kind", "--n", "--bypass-validation"],
    ("iterate",): ["--frame", "--kind", "--twists", "--splitting-bit", "--from-trivial", "--trace", "--verify",
                   "--bypass-validation"],
    ("two-bridge",): ["{slopes,to-twists,from-twists}"],
    ("two-bridge", "slopes"): ["--a", "--b"],
    ("two-bridge", "to-twists"): ["--a", "--b"],
    ("two-bridge", "from-twists"): ["--twists"],
    ("verify-correspondence",): ["--max-d", "--b-range"],
    ("verify-oracle",): ["--frame-bound", "--depth", "--n-range"],
    ("enumerate",): ["--catalog", "--frame", "--kind", "--depth", "--n-range", "--splitting-bit", "--from-trivial",
                     "--bypass-validation"],
    ("compare",): ["--left", "--right", "--bypass-validation"],
}


def run_help(capsys, monkeypatch, *argv):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    with pytest.raises(SystemExit) as exit_info:
        main(list(argv))
    captured = capsys.readouterr()
    return exit_info.value.code, captured.out, captured.err


def test_top_level_help_lists_every_command(capsys, monkeypatch):
    code, out, _ = run_help(capsys, monkeypatch, "-h")
    assert code == 0
    commands = [argv[0] for argv in COMMAND_OPTIONS if len(argv) == 1]
    assert "{" + ",".join(commands) + "}" in out
    # one indented line per command, its help line beside or below it
    listed = [line.split()[0] for line in out.splitlines() if line.startswith("    ") and line[4] != " "]
    assert listed == commands


@pytest.mark.parametrize("argv", list(COMMAND_OPTIONS), ids=" ".join)
def test_command_help_lists_its_options(capsys, monkeypatch, argv):
    code, out, _ = run_help(capsys, monkeypatch, *argv, "-h")
    assert code == 0
    assert out.startswith(f"usage: tunnelslopes {' '.join(argv)} ")
    assert all(option in out for option in COMMAND_OPTIONS[argv])


def test_repeated_call_builds_no_parser(capsys, monkeypatch):
    argv = ["split", "--frame", "2,3,1,2", "--kind", "drop-rho", "--n", "1"]
    first = run_cli(capsys, *argv)
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run_cli(capsys, *argv) == first
    assert built == []


def test_unknown_command_is_a_usage_error(capsys, monkeypatch):
    code, out, err = run_help(capsys, monkeypatch, "splt", "--frame", "2,3,1,2")
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == (
        "tunnelslopes: error: argument command: invalid choice: 'splt' (choose from 'split', 'iterate', "
        "'two-bridge', 'verify-correspondence', 'verify-oracle', 'enumerate', 'compare')"
    )


def _descriptor(frame="2,3,1,2", twists="2,1"):
    return json.dumps({"frame": frame, "kind": "drop-rho-pure", "twists": twists})


# each option that reads integer-list text, given the fuzzed text; every other argument is valid
TEXT_OPTIONS = {
    "split --frame": lambda text: ("split", f"--frame={text}", "--kind", "drop-rho", "--n", "1"),
    "split --n": lambda text: ("split", "--frame", "2,3,1,2", "--kind", "drop-rho", f"--n={text}"),
    "iterate --frame": lambda text: ("iterate", f"--frame={text}", "--kind", "drop-rho-pure", "--twists", "2,1"),
    "iterate --twists": lambda text: ("iterate", "--frame", "2,3,1,2", "--kind", "drop-rho-pure", f"--twists={text}"),
    "slopes --a": lambda text: ("two-bridge", "slopes", f"--a={text}", "--b", "2"),
    "slopes --b": lambda text: ("two-bridge", "slopes", "--a", "1", f"--b={text}"),
    "to-twists --a": lambda text: ("two-bridge", "to-twists", f"--a={text}", "--b", "2"),
    "to-twists --b": lambda text: ("two-bridge", "to-twists", "--a", "1", f"--b={text}"),
    "from-twists --twists": lambda text: ("two-bridge", "from-twists", f"--twists={text}"),
    "compare frame": lambda text: ("compare", "--left", _descriptor(), "--right", _descriptor(frame=text)),
    "compare twists": lambda text: ("compare", "--left", _descriptor(), "--right", _descriptor(twists=text)),
}
# digits, signs, separators, letters and non-ASCII digits, which int() reads too; and argparse's "--"
option_texts = st.just("--") | st.text(alphabet="0123456789-,+ _axeT٣५５", max_size=12)


@pytest.mark.parametrize("option", list(TEXT_OPTIONS))
@settings(derandomize=True, max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=option_texts)
def test_text_options_fail_cleanly(capsys, option, text):
    try:
        code = main(list(TEXT_OPTIONS[option](text)))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 2, 3)
    if code == 3:
        assert err.count("\n") == 1
    assert "invalid literal" not in out + err
