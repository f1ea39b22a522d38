"""Exhaustive verification grids, shared by the CLI and the test suite.

Grid points are the package's own values, which pickle into the process
pool as they are; the mapping helper preserves input order, which keeps
every grid's output deterministic regardless of the worker count.  The
process pool is imported on first parallel use, so a one-worker grid runs
without it.
"""

from __future__ import annotations

import itertools
import os
from collections import namedtuple
from functools import lru_cache
from math import gcd

from .frames import FareyFrame
from .iteration import SequenceKind, TwistSequence, closed_form_slopes, oracle_slopes
from .two_bridge import validate_cf, verify_correspondence

WORKERS_ENV = "TUNNELSLOPES_WORKERS"


def worker_count() -> int:
    """Worker count from the environment, at most one per CPU; unset or 1 means in-process."""
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    return max(1, min(n, os.cpu_count() or 1))


def ordered_map(fn, items, *, workers: int = 1, chunksize: int = 256):
    """Map preserving input order, optionally across processes."""
    if workers <= 1:
        yield from map(fn, items)
    else:
        # imported here so one-shot commands and 1-worker grids never load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(fn, items, chunksize=chunksize)


@lru_cache(maxsize=None)
def frames_in_box(bound: int) -> tuple[FareyFrame, ...]:
    """Every valid frame with all four entries in [-bound, bound], lexicographic."""
    out = []
    rng = range(-bound, bound + 1)
    for p, q in itertools.product(rng, repeat=2):
        if gcd(p, q) != 1:
            continue
        for r, s in itertools.product(rng, repeat=2):
            if abs(p * s - q * r) != 1 or gcd(r, s) != 1:
                continue
            out.append(FareyFrame(p, q, r, s))
    return tuple(out)


def nonzero_range(bound: int) -> tuple[int, ...]:
    """All nonzero integers in [-bound, bound], ascending."""
    return tuple(n for n in range(-bound, bound + 1) if n != 0)


def twist_tuples(max_len: int, bound: int):
    """All twist sequences of length 1..max_len over the nonzero box, as tuples."""
    opts = nonzero_range(bound)
    for length in range(1, max_len + 1):
        yield from itertools.product(opts, repeat=length)


def cf_pairs(max_depth: int, turn_bound: int):
    """All (signs, turns) pairs of depth 0..max_depth over the nonzero turn box.

    With turns bounded away from 0 every derived step twist is automatically
    nonzero, so no pair gets filtered.
    """
    opts = nonzero_range(turn_bound)
    for length in range(1, max_depth + 2):
        for signs in itertools.product((-1, 1), repeat=length):
            yield from ((signs, turns) for turns in itertools.product(opts, repeat=length))


def check_oracle_case(case) -> dict | None:
    """Compare both slope engines on one (FareyFrame, SequenceKind, TwistSequence) point."""
    frame, kind, twists = case
    closed = closed_form_slopes(frame, kind, twists)
    replayed, _ = oracle_slopes(frame, kind, twists)
    if closed == replayed:
        return None
    return {
        "frame": frame.text(),
        "kind": kind.value,
        "twists": twists.text(),
        "closed": [slope.text() for slope in closed],
        "replayed": [slope.text() for slope in replayed],
    }


def check_correspondence_case(case) -> dict | None:
    """Run both invariant routes on one (signs, turns) pair."""
    signs, turns = case
    report = verify_correspondence(validate_cf(signs, turns))
    if report.match:
        return None
    return {
        "a": list(signs),
        "b": list(turns),
        "cf": report.cf.text(),
        "twists": report.twists.text(),
        "bridge": report.bridge_invariants.to_dict(),
        "chain": report.chain_invariants.to_dict(),
        "match": report.match,
    }


class GridResult(namedtuple("GridResult", "cases failures")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def _run_grid(checker, cases, workers: int) -> GridResult:
    count = 0
    failures = []
    for result in ordered_map(checker, cases, workers=workers):
        count += 1
        if result is not None:
            failures.append(result)
    return GridResult(count, tuple(failures))


def run_oracle_grid(frame_bound: int, max_len: int, n_bound: int, *, workers: int = 1) -> GridResult:
    """Both slope engines over frames x all eight kinds x all twist sequences."""
    cases = (
        (frame, kind, TwistSequence(tw))
        for frame in frames_in_box(frame_bound)
        for kind in SequenceKind
        for tw in twist_tuples(max_len, n_bound)
    )
    return _run_grid(check_oracle_case, cases, workers)


def run_correspondence_grid(max_depth: int, turn_bound: int, *, workers: int = 1) -> GridResult:
    """Both invariant routes over every continued fraction in the box."""
    return _run_grid(check_correspondence_case, cf_pairs(max_depth, turn_bound), workers)
