import os
from math import gcd

import pytest

from tunnelslopes import FareyFrame, SequenceKind, TwistSequence, validate_cf
from tunnelslopes.verify import (
    GridResult,
    cf_pairs,
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


def test_check_case_helpers_pass():
    case = (FareyFrame(2, 3, 1, 2), SequenceKind.DROP_RHO_PURE, TwistSequence((2, 1)))
    assert check_oracle_case(case) is None
    assert check_correspondence_case(((1, 1), (1, 1))) is None


def test_oracle_grid():
    result = run_oracle_grid(1, 2, 1)
    assert result.ok
    assert result.cases == len(frames_in_box(1)) * 8 * 6


def test_oracle_grid_builds_each_twist_sequence_once(monkeypatch):
    built = []
    init = TwistSequence.__init__

    def counting_init(self, entries):
        built.append(entries)
        init(self, entries)

    monkeypatch.setattr(TwistSequence, "__init__", counting_init)
    result = run_oracle_grid(1, 2, 1)
    assert result.ok
    assert len(built) == result.cases


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
