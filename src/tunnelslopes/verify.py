"""Exhaustive verification grids, shared by the CLI and the test suite.

A grid is a short list of slice descriptors: one (frame, kind) pair of the
oracle grid, or one sign tuple of the correspondence grid.  The process
pool receives slices, not points: each worker builds the points of its
slice and returns the slice's case count and failures, so the parent's
memory does not grow with the grid.  Slices run in order at every worker
count, through the mapping helper that preserves input order, which keeps
every grid's output deterministic.  The process pool is imported on first
parallel use, so a one-worker grid runs without it.  `enumerate` walks
`chain_points`' order by prefixes, in `iteration.chain_walk`.
"""

from __future__ import annotations

import itertools
import os
from collections import namedtuple

from .frames import FareyFrame, nonzero_range
from .iteration import SequenceKind, TwistSequence, closed_form_slopes, oracle_slopes
from .two_bridge import validate_cf, verify_correspondence

WORKERS_ENV = "TUNNELSLOPES_WORKERS"


def worker_count() -> int:
    """Worker count from the environment, at most one per CPU this process may use; unset or 1 means in-process."""
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(n, cpus))


def ordered_map(fn, items, *, workers: int = 1, chunksize: int = 256):
    """Map preserving input order, optionally across processes.

    With `workers > 1` the pool consumes `items` up front, holding every
    item pickled before the first result comes back; that is why grids pass
    slices, not points.  Each worker ends itself once its parent is gone, so
    a parent killed mid-grid, even by SIGKILL, leaves no worker running.
    """
    if workers <= 1:
        yield from map(fn, items)
    else:
        # imported here so one-shot commands and 1-worker grids never load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers, initializer=_end_with_parent) as pool:
            yield from pool.map(fn, items, chunksize=chunksize)


def _end_with_parent() -> None:
    """Pool-worker initializer: a daemon thread exits the worker once the process that started it is gone."""
    import multiprocessing
    import threading

    def watch() -> None:
        # the parent's sentinel, a pipe that workers forked later hold too: the last one ends first, freeing the next
        multiprocessing.parent_process().join()
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def frames_in_box(bound: int) -> tuple[FareyFrame, ...]:
    """Every frame with all four entries in [-bound, bound], lexicographic.

    The determinant alone decides: a common divisor of p and q, or of r and s,
    divides p*s - q*r, so a determinant of +-1 makes both pairs coprime.
    """
    box = itertools.product(range(-bound, bound + 1), repeat=4)
    return tuple(FareyFrame(p, q, r, s) for p, q, r, s in box if p * s - q * r in (1, -1))


def twist_tuples(max_len: int, bound: int):
    """All twist sequences of length 1..max_len over the nonzero box, as tuples."""
    opts = nonzero_range(bound)
    for length in range(1, max_len + 1):
        yield from itertools.product(opts, repeat=length)


def chain_points(frames, kinds, max_len: int, n_bound: int):
    """Every (FareyFrame, SequenceKind, TwistSequence) point of a chain grid, frames outermost."""
    for frame in frames:
        for kind in kinds:
            # `twist_tuples` yields only nonempty tuples of nonzero ints
            for tw in twist_tuples(max_len, n_bound):
                yield frame, kind, TwistSequence._trusted(tw)


def _sign_slices(max_depth: int, turn_bound: int) -> list[tuple[tuple[int, ...], int]]:
    """One (signs, turn_bound) slice per sign tuple of depth 0..max_depth: the twist tuples of the box (-1, 1)."""
    return [(signs, turn_bound) for signs in twist_tuples(max_depth + 1, 1)]


def _slice_pairs(signs: tuple[int, ...], turn_bound: int):
    """Every (signs, turns) pair with these signs, turns over the nonzero box."""
    return ((signs, turns) for turns in itertools.product(nonzero_range(turn_bound), repeat=len(signs)))


def cf_pairs(max_depth: int, turn_bound: int):
    """All (signs, turns) pairs of depth 0..max_depth over the nonzero turn box.

    With turns bounded away from 0 every derived step twist is automatically
    nonzero, so no pair gets filtered.
    """
    for signs, bound in _sign_slices(max_depth, turn_bound):
        yield from _slice_pairs(signs, bound)


def check_oracle_case(case) -> dict | None:
    """Compare both slope engines on one (FareyFrame, SequenceKind, TwistSequence) point."""
    frame, kind, twists = case
    closed = closed_form_slopes(frame, kind, twists)
    replayed, _ = oracle_slopes(frame, kind, twists)
    if closed == replayed:
        return None
    return {
        "frame": frame.text(),
        "kind": kind._value_,  # not `value`, an `enum.property` (see `iteration.descriptor_dict`)
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


def _check_slice(check, cases) -> tuple[int, list]:
    results = [check(case) for case in cases]
    return len(results), [result for result in results if result is not None]


# The slice runners name their check as a module global, read at call time,
# so a check or engine patched before the pool forks is the one every worker runs.
def _oracle_slice(piece) -> tuple[int, list]:
    """Check one (frame, kind, max_len, n_bound) slice, building its points here."""
    frame, kind, max_len, n_bound = piece
    return _check_slice(check_oracle_case, chain_points((frame,), (kind,), max_len, n_bound))


def _correspondence_slice(piece) -> tuple[int, list]:
    """Check one (signs, turn_bound) slice, expanding its turns here."""
    return _check_slice(check_correspondence_case, _slice_pairs(*piece))


def _run_grid(run_slice, slices: list, workers: int) -> GridResult:
    """Sum the slices' case counts and join their failures in slice order."""
    count = 0
    failures = []
    # a few chunks per worker: enough to balance the load, few enough to pickle little
    chunksize = max(1, len(slices) // (4 * workers))
    for cases, found in ordered_map(run_slice, slices, workers=workers, chunksize=chunksize):
        count += cases
        failures += found
    return GridResult(count, tuple(failures))


def run_oracle_grid(frame_bound: int, max_len: int, n_bound: int, *, workers: int = 1) -> GridResult:
    """Both slope engines over frames x all eight kinds x all twist sequences."""
    slices = [(frame, kind, max_len, n_bound) for frame in frames_in_box(frame_bound) for kind in SequenceKind]
    return _run_grid(_oracle_slice, slices, workers)


def run_correspondence_grid(max_depth: int, turn_bound: int, *, workers: int = 1) -> GridResult:
    """Both invariant routes over every continued fraction in the box."""
    return _run_grid(_correspondence_slice, _sign_slices(max_depth, turn_bound), workers)
