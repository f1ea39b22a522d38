import itertools
import os
import select
import signal
import subprocess
import sys
import textwrap
import time
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest

from tunnelslopes import (
    FareyFrame,
    SequenceKind,
    SimpleSlope,
    Slope,
    TunnelInvariants,
    TwistSequence,
    two_bridge,
    validate_cf,
    validate_frame,
    verify,
)
from tunnelslopes.verify import (
    GridResult,
    cf_pairs,
    chain_points,
    check_correspondence_case,
    check_oracle_case,
    frames_in_box,
    nonzero_range,
    ordered_map,
    run_correspondence_grid,
    run_oracle_grid,
    twist_tuples,
    worker_count,
)


def _double(n):
    return 2 * n


def test_frames_in_box_matches_brute_force():
    found = {(f.p, f.q, f.r, f.s) for f in frames_in_box(2)}
    expected = set()
    for p in range(-2, 3):
        for q in range(-2, 3):
            for r in range(-2, 3):
                for s in range(-2, 3):
                    if gcd(p, q) == 1 and gcd(r, s) == 1 and abs(p * s - q * r) == 1:
                        expected.add((p, q, r, s))
    assert found == expected


def test_frames_in_box_shape():
    box = frames_in_box(1)
    assert FareyFrame(1, 0, 0, 1) in box
    assert len(set(box)) == len(box)
    tuples = {(f.p, f.q, f.r, f.s) for f in box}
    assert {(-p, -q, -r, -s) for (p, q, r, s) in tuples} == tuples
    assert len(frames_in_box(5)) == 616


def test_frames_in_box_follows_validate_frame():
    # the reference scan: every tuple of the box that the live frame rule accepts, in the box's order
    for bound in range(-1, 7):
        expected = []
        for entries in itertools.product(range(-bound, bound + 1), repeat=4):
            try:
                expected.append(validate_frame(*entries))
            except ValueError:
                pass
        box = frames_in_box(bound)
        assert box == tuple(expected) and all(frame.checked for frame in box)


def test_nonzero_range():
    assert nonzero_range(2) == (-2, -1, 1, 2)
    assert nonzero_range(0) == ()


def test_twist_tuples_count():
    tuples = list(twist_tuples(2, 2))
    assert len(tuples) == 4 + 16
    assert len(set(tuples)) == len(tuples)
    assert all(0 not in tw for tw in tuples)


def test_cf_pairs_all_validate():
    pairs = list(cf_pairs(1, 1))
    assert len(pairs) == 2 * 2 + 4 * 4
    for signs, turns in pairs:
        validate_cf(signs, turns)
    # the order too: sign tuples by depth outermost, then the turns of each
    assert list(cf_pairs(2, 2)) == [
        (signs, turns)
        for depth in range(3)
        for signs in itertools.product((-1, 1), repeat=depth + 1)
        for turns in itertools.product((-2, -1, 1, 2), repeat=depth + 1)
    ]


def test_check_case_helpers_pass():
    case = (FareyFrame(2, 3, 1, 2), SequenceKind.DROP_RHO_PURE, TwistSequence((2, 1)))
    assert check_oracle_case(case) is None
    assert check_correspondence_case(((1, 1), (1, 1))) is None


def test_chain_points_match_the_nested_loop():
    frames = frames_in_box(1)
    expected = [
        (frame, kind, TwistSequence(tw))
        for frame in frames
        for kind in SequenceKind
        for tw in twist_tuples(2, 1)
    ]
    assert list(chain_points(frames, SequenceKind, 2, 1)) == expected


def test_oracle_grid():
    result = run_oracle_grid(1, 2, 1)
    assert result.ok
    assert result.cases == len(frames_in_box(1)) * 8 * 6


def _count_twist_sequences(monkeypatch) -> list:
    """Record the entries of every `TwistSequence` built, by either constructor."""
    built = []
    init, trusted = TwistSequence.__init__, TwistSequence._trusted.__func__

    def counting_init(self, entries):
        built.append(entries)
        init(self, entries)

    def counting_trusted(cls, entries):
        built.append(entries)
        return trusted(cls, entries)

    monkeypatch.setattr(TwistSequence, "__init__", counting_init)
    monkeypatch.setattr(TwistSequence, "_trusted", classmethod(counting_trusted))
    return built


def test_oracle_grid_builds_each_twist_sequence_once(monkeypatch):
    built = _count_twist_sequences(monkeypatch)
    result = run_oracle_grid(1, 2, 1)
    assert result.ok
    assert len(built) == result.cases


def test_pooled_oracle_grid_builds_no_points_in_the_parent(monkeypatch):
    # the pool receives (frame, kind) slices; forked workers count into their own copies of `built`
    built = _count_twist_sequences(monkeypatch)
    result = run_oracle_grid(1, 2, 1, workers=2)
    assert result.ok
    assert result.cases == len(frames_in_box(1)) * 8 * 6
    assert built == []


def test_chain_points_skip_the_public_twist_check(monkeypatch):
    # `twist_tuples` yields only nonempty tuples of nonzero ints: checked once, where they are made
    def refuse(self, entries):
        raise AssertionError("a grid point ran the public TwistSequence check")

    monkeypatch.setattr(TwistSequence, "__init__", refuse)
    points = list(chain_points(frames_in_box(1)[:1], [SequenceKind.DROP_RHO_PURE], 2, 1))
    assert [twists.entries for _, _, twists in points] == [(-1,), (1,), (-1, -1), (-1, 1), (1, -1), (1, 1)]


def test_pooled_oracle_grid_parent_memory_does_not_grow_with_the_grid():
    run_oracle_grid(1, 1, 1, workers=2)  # imports the pool machinery outside the traced runs

    def parent_peak(max_len):
        tracemalloc.start()
        try:
            cases = run_oracle_grid(1, max_len, 2, workers=2).cases
            return cases, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small_cases, small_peak = parent_peak(2)
    large_cases, large_peak = parent_peak(3)
    assert (small_cases, large_cases) == (6400, 26880)
    # both grids have the same 320 slices; holding the points would cost megabytes
    assert abs(large_peak - small_peak) < 64 * 1024


def test_oracle_grid_failures_do_not_depend_on_worker_count(monkeypatch):
    box = frames_in_box(1)
    targets = ((box[0], SequenceKind.DROP_RHO_PURE), (box[-1], SequenceKind.LIFT_LAMBDA_MIXED_TAU))
    original = verify.oracle_slopes

    def shifted(frame, kind, twists):
        slopes, trace = original(frame, kind, twists)
        if (frame, kind) in targets and twists[0] == 1:
            slopes[0] = Slope(slopes[0].value + 1, slopes[0].coords)
        return slopes, trace

    # patched before the pool forks, so every worker runs it
    monkeypatch.setattr(verify, "oracle_slopes", shifted)
    serial = run_oracle_grid(1, 2, 1, workers=1)
    assert run_oracle_grid(1, 2, 1, workers=2) == serial
    assert serial.cases == len(box) * 8 * 6
    # three twist sequences of each target slice start with 1, and the first slice fails first
    expected = [(frame.text(), kind.value) for frame, kind in targets for _ in range(3)]
    assert [(failure["frame"], failure["kind"]) for failure in serial.failures] == expected


def test_correspondence_grid_failures_do_not_depend_on_worker_count(monkeypatch):
    targets = ((-1, 1), (1, 1, -1))
    original = two_bridge.semisimple_slopes

    def wrong(cf):
        invariants = original(cf)
        if cf.signs not in targets:
            return invariants
        shifted = SimpleSlope(invariants.first.representative + Fraction(1, 7))
        return TunnelInvariants(shifted, invariants.rest, invariants.binary)

    monkeypatch.setattr(two_bridge, "semisimple_slopes", wrong)
    serial = run_correspondence_grid(2, 1, workers=1)
    assert run_correspondence_grid(2, 1, workers=2) == serial
    assert serial.cases == 2 * 2 + 4 * 4 + 8 * 8
    # every turn tuple of each target sign tuple fails, shorter tuple first
    expected = [list(signs) for signs in targets for _ in range(2 ** len(signs))]
    assert [failure["a"] for failure in serial.failures] == expected


@pytest.mark.parametrize("rule", ["_bridge_lead", "_bridge_entry"])
def test_a_fault_in_a_bridge_rule_reaches_the_correspondence_grid_at_every_worker_count(monkeypatch, rule):
    original = getattr(two_bridge, rule)
    faults = {
        "_bridge_lead": lambda sign, turn: original(sign, turn if turn != 1 else 2),
        "_bridge_entry": lambda sign: original(sign) + (sign == 1),
    }
    # patched before the pool forks, so every worker folds it
    monkeypatch.setattr(two_bridge, rule, faults[rule])
    serial = run_correspondence_grid(2, 1, workers=1)
    assert run_correspondence_grid(2, 1, workers=2) == serial
    # the lead fault hits the fractions whose innermost turn is 1, the entry fault those with a later slope after a +1
    hit = {
        "_bridge_lead": lambda signs, turns: turns[0] == 1,
        "_bridge_entry": lambda signs, turns: 1 in signs[:-1],
    }[rule]
    assert [(tuple(f["a"]), tuple(f["b"])) for f in serial.failures] == [pair for pair in cf_pairs(2, 1) if hit(*pair)]


def test_correspondence_grid():
    result = run_correspondence_grid(1, 1)
    assert result.ok
    assert result.cases == 20


def test_grid_result_failure_flag():
    assert not GridResult(3, ({"frame": "?"},)).ok
    assert GridResult(3, ()).ok


def test_worker_count(monkeypatch):
    monkeypatch.delenv("TUNNELSLOPES_WORKERS", raising=False)
    assert worker_count() == 1
    # a process pinned to one CPU of eight gets one worker
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setenv("TUNNELSLOPES_WORKERS", "4")
    assert worker_count() == 1
    # with no affinity call, the cap falls back to the CPU count
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setenv("TUNNELSLOPES_WORKERS", "4")
    assert worker_count() == 4
    monkeypatch.setenv("TUNNELSLOPES_WORKERS", "100000")
    assert worker_count() == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert worker_count() == 1
    monkeypatch.setenv("TUNNELSLOPES_WORKERS", "0")
    assert worker_count() == 1
    monkeypatch.setenv("TUNNELSLOPES_WORKERS", "two")
    with pytest.raises(ValueError):
        worker_count()


def test_ordered_map_serial_and_parallel():
    items = list(range(40))
    assert list(ordered_map(_double, items)) == [2 * n for n in items]
    assert list(ordered_map(_double, items, workers=2, chunksize=4)) == [2 * n for n in items]


# A parent that maps a sleeping function over as many workers as its argument says, each printing its pid first.
_NAPPING_PARENT = textwrap.dedent(
    """
    import os, sys, time
    from tunnelslopes.verify import ordered_map

    def nap(i):
        print(os.getpid(), flush=True)
        time.sleep(60)

    workers = int(sys.argv[1])
    list(ordered_map(nap, range(workers), workers=workers, chunksize=1))
    """
)


def _running(pid: int) -> bool:
    """Whether `pid` is a live process; a zombie, which has ended but awaits its reaper, is not."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads process states from /proc")
@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGKILL], ids=lambda signum: signum.name)
# four workers hold each other's parent sentinels open, so they end one after another
@pytest.mark.parametrize("count", [2, 4])
def test_pool_workers_end_with_their_parent(tmp_path, signum, count):
    script = tmp_path / "parent.py"
    script.write_text(_NAPPING_PARENT)
    parent = subprocess.Popen([sys.executable, str(script), str(count)], stdout=subprocess.PIPE)
    workers, out = [], b""
    try:
        # raw reads: a buffered readline could hold a later pid where select cannot see it
        while out.count(b"\n") < count:
            ready, _, _ = select.select([parent.stdout], [], [], 30)
            assert ready, f"the workers reported {out!r} within 30 s"
            chunk = os.read(parent.stdout.fileno(), 4096)
            assert chunk, f"the parent exited after the workers reported {out!r}"
            out += chunk
        workers = [int(pid) for pid in out.split()]
        parent.send_signal(signum)
        parent.wait(timeout=10)
        deadline = time.monotonic() + 5
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert [pid for pid in workers if _running(pid)] == []
    finally:
        for pid in workers:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
        parent.kill()
        parent.wait()
        parent.stdout.close()
