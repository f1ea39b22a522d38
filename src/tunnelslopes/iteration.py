"""Invariants of chained splitting constructions.

A chain starts with one of the four splitting moves and then keeps joining
fresh copies of a fixed knot, one join per entry of its twist sequence.  Two
independent engines compute the slope sequence:

* `closed_form_slopes` orients the frame for the initial move and evaluates
  one of two closed formulas, pure or mixed, driven by two small integer
  recursions over the parities of the twist counts;
* `oracle_slopes` replays the construction join by join, carrying the
  oriented homology class of the growing knot and reading each slope off a
  linking number; on request it also returns the trace, one `TraceStep`
  per join.  Only `iterate --trace` reads a trace, so no grid builds one.

The engines must agree everywhere.  `assemble_invariants(..., verify=True)`
checks that on the fly and raises `EngineMismatchError` on any disagreement,
which would mean a bug in one of them, never a property of the input.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .frames import (
    LAMBDA_COORDS,
    RHO_COORDS,
    TAU_COORDS,
    FareyFrame,
    SplitKind,
    parse_ints,
)
from .slopes import Frozen, Slope, TunnelInvariants, _set, chain_slope, pair_class


class SequenceKind(Enum):
    """The eight chain kinds: four initial splitting moves, each iterated two ways.

    A pure chain keeps joining copies of the peeled constituent and keeps that
    constituent's disk at every later join; a mixed chain keeps joining copies
    of the composite knot and keeps the composite's disk instead.  Each member
    carries both facts as plain attributes: `initial_split`, and `mixed`.
    """

    DROP_RHO_PURE = "drop-rho-pure"
    DROP_RHO_MIXED_TAU = "drop-rho-mixed-tau"
    DROP_LAMBDA_PURE = "drop-lambda-pure"
    DROP_LAMBDA_MIXED_TAU = "drop-lambda-mixed-tau"
    LIFT_RHO_PURE = "lift-rho-pure"
    LIFT_RHO_MIXED_TAU = "lift-rho-mixed-tau"
    LIFT_LAMBDA_PURE = "lift-lambda-pure"
    LIFT_LAMBDA_MIXED_TAU = "lift-lambda-mixed-tau"

    def __init__(self, value: str) -> None:
        # Stored once: a member hashes and reads `value` in Python, so a dict keyed by members,
        # or a property reading `value`, would cost calls into `enum` on every engine case.
        # A chain kind's value is its initial move's value plus "-pure" or "-mixed-tau".
        self.mixed = value.endswith("-mixed-tau")
        self.initial_split = SplitKind(value.removesuffix("-pure").removesuffix("-mixed-tau"))


class TwistSequence(Frozen):
    """Half-twist counts of the joins, initial splitting first; every count is nonzero."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: tuple[int, ...]) -> None:
        entries = tuple(entries)
        if not entries:
            raise ValueError("a twist sequence has at least one entry")
        for n in entries:
            # type(...) is int also rejects True, which would print as "True" and never parse back
            if type(n) is not int or n == 0:
                raise ValueError(f"twist counts must be nonzero integers, got {n!r}")
        _set(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, index: int) -> int:
        return self.entries[index]

    def text(self) -> str:
        return ",".join(str(n) for n in self.entries)

    @classmethod
    def parse(cls, text: str) -> "TwistSequence":
        return cls(parse_ints(text, "twist counts must be comma-separated nonzero integers"))


def as_twists(twists) -> TwistSequence:
    """Coerce any iterable of ints to a TwistSequence."""
    if isinstance(twists, TwistSequence):
        return twists
    return TwistSequence(tuple(twists))


def step_sign(n: int) -> int:
    """+1 when the twist count is odd, -1 when even.

    An odd number of half-twists lets the strand coming back from the joined
    copy keep its direction; an even number reverses it.
    """
    if n == 0:
        raise ValueError("twist count must be nonzero")
    return 1 if n % 2 else -1


@lru_cache(maxsize=8192)  # perfbench pin (bench.py): delete after ROADMAP item 1 PR B
def _cached_tables(entries: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The (mult, sign) pair of each join: orientation bookkeeping for the closed formulas.

    With e_k = step_sign(n_k) for the k-th twist count, the pairs obey

        mult_0 = sign_0 = 1
        sign_{k+1} = e_k * sign_k
        mult_{k+1} = 1 + e_k * mult_k

    so sign_k is the product of the first k step signs (always +-1).  In a
    pure chain the class of the knot assembled after k joins is
    mult_k*(joined knot) + sign_k*(other constituent); a mixed chain carries
    (mult_k - sign_k) copies of the composite knot instead.
    """
    pairs = [(1, 1)]
    for n in entries[:-1]:
        mult, sign = pairs[-1]
        e = step_sign(n)
        pairs.append((1 + e * mult, e * sign))
    return tuple(pairs)


def position_coords(k: int, initial: SplitKind) -> str:
    """Coordinate tag for the k-th slope of a chain.

    The first slope is measured against the unpeeled constituent's disk pair,
    the second against the composite knot's, and each later one against the
    disk replaced two joins earlier.
    """
    if k == 0:
        return LAMBDA_COORDS if initial.splits_rho else RHO_COORDS
    if k == 1:
        return TAU_COORDS
    return f"(γ^{k - 2})"


def closed_form_slopes(frame: FareyFrame, kind: SequenceKind, twists) -> list[Slope]:
    """Slope sequence of a chain: one orientation step, then one of two formulas.

    Take (a, b) from the peeled constituent, (p, q) for a rho move and
    (r, s) for a lambda move, and (c, d) from the kept one.  After a drop
    each pair reads (ell, m); after a lift it reads (m, ell).  With (mult,
    sgn) the k-th pair of `_cached_tables`, the integer part of entry k
    (twice the join's linking number) is

        pure:  2*a*(mult*b + sgn*d)
        mixed: 2*(b + d)*(mult*a + (mult - sgn)*c)

    and entry k adds the twist term 1/n_k; `chain_slope` builds the sum from
    its integer lowest terms.  The first pair is (1, 1), so entry 0 always
    agrees with the single-splitting slope of the chain's initial move.
    """
    t = as_twists(twists)
    initial = kind.initial_split
    peeled, kept = (frame.p, frame.q), (frame.r, frame.s)
    if not initial.splits_rho:
        peeled, kept = kept, peeled
    if not initial.drops:
        peeled, kept = peeled[::-1], kept[::-1]
    (a, b), (c, d) = peeled, kept
    mixed = kind.mixed
    out = []
    for k, ((mult, sgn), n) in enumerate(zip(_cached_tables(t.entries), t.entries)):
        if mixed:
            coeff = 2 * (b + d) * (mult * a + (mult - sgn) * c)
        else:
            coeff = 2 * a * (mult * b + sgn * d)
        out.append(chain_slope(coeff, n, position_coords(k, initial)))
    return out


class TraceStep(namedtuple("TraceStep", "k c_prev upper lower linking slope")):
    """One join of the step-by-step engine.

    `linking` is the linking number of `upper` with `lower`; the slope of the
    join is exactly 2 * linking + 1/n for the join's twist count n.  `c_prev`
    is the oriented class of the knot assembled before this join.
    """

    __slots__ = ()


def oracle_slopes(
    frame: FareyFrame, kind: SequenceKind, twists, trace: bool = False
) -> tuple[list[Slope], tuple[TraceStep, ...]]:
    """Slope sequence computed with no closed formulas, plus the trace if asked for.

    Write B for the peeled constituent's class and T for the composite
    knot's.  A pure chain starts from T and accretes B at every join; a mixed
    chain starts from B and accretes T.  Each join multiplies the old class
    by the step sign before adding the accreted one, and the slope read at
    the join is twice the linking number of the upper circle with the lower
    one, plus 1/n.  Which circle is upper follows the chain geometry: a pure
    chain places each fresh copy the way the initial move peeled (below
    after a drop, above after a lift), and a mixed chain places it the other
    way.

    Each slope is the one `Fraction(2*link*n + 1, n)`: the same value as
    2*link + 1/n with no rational addition, and reduced by `Fraction`'s own
    gcd, so the comparison with the closed form also checks its claim that
    that pair is already in lowest terms.  With `trace` the second item
    holds one `TraceStep` per join; without it, it is empty and no step is
    built.
    """
    t = as_twists(twists)
    initial = kind.initial_split
    constituent = frame.rho_class if initial.splits_rho else frame.lambda_class
    composite = frame.tau_class
    mixed = kind.mixed
    drops = initial.drops
    accreted = composite if mixed else constituent
    prev = constituent if mixed else composite
    slopes: list[Slope] = []
    steps: list[TraceStep] = []
    for k, n in enumerate(t.entries):
        if mixed:
            upper, lower = (composite, prev) if drops else (prev, composite)
        else:
            upper, lower = (prev, constituent) if drops else (constituent, prev)
        link = upper.m * lower.ell
        slope = Slope(Fraction(2 * link * n + 1, n), position_coords(k, initial))
        if trace:
            steps.append(TraceStep(k, prev, upper, lower, link, slope))
        slopes.append(slope)
        prev = accreted + step_sign(n) * prev
    return slopes, tuple(steps)


def binary_invariants(kind: SequenceKind, steps: int, splitting_bit: int) -> list[int]:
    """Bit sequence of a chain: one bit per join, initial splitting first.

    Every join of a pure chain keeps the same disk as the splitting move, so
    only the splitting's own bit, fixed by whatever construction preceded it
    and therefore supplied by the caller, can be set.  A mixed chain switches
    the kept disk at its first join, which sets that join's bit as well.
    """
    if steps < 1:
        raise ValueError("a chain has at least its initial splitting")
    # type(...) is int also rejects True and False, which are ints to isinstance
    if type(splitting_bit) is not int or splitting_bit not in (0, 1):
        raise ValueError(f"splitting bit must be 0 or 1, got {splitting_bit!r}")
    bits = [0] * steps
    bits[0] = splitting_bit
    if kind.mixed and steps >= 2:
        bits[1] = 1
    return bits


class EngineMismatchError(RuntimeError):
    """The closed-form and step-by-step engines disagreed; this is an internal bug."""


TRIVIAL_FRAMES = ((1, 0, 0, 1), (-1, 0, 0, -1))


def _chain(frame, kind, twists, splitting_bit, from_trivial, verify, trace=False):
    """Invariants and, if asked, the oracle's trace; `trace` alone skips the check, so a mismatch can be read."""
    t = as_twists(twists)
    if from_trivial and (frame.p, frame.q, frame.r, frame.s) not in TRIVIAL_FRAMES:
        raise ValueError("a chain out of the trivial knot needs the identity frame, up to sign")
    slopes = closed_form_slopes(frame, kind, t)
    steps = ()
    if verify or trace:
        replayed, steps = oracle_slopes(frame, kind, t, trace=trace)
        if verify and replayed != slopes:
            raise EngineMismatchError(
                f"engines disagree for frame {frame.text()}, kind {kind.value}, twists {t.text()}"
            )
    bits = binary_invariants(kind, len(t), splitting_bit)
    # the reciprocal's mod-1 class, read off the lead slope's integer pair
    first = pair_class(slopes[0].den, slopes[0].num) if from_trivial else slopes[0]
    return TunnelInvariants(first, tuple(slopes[1:]), tuple(bits)), steps


def assemble_invariants(
    frame: FareyFrame,
    kind: SequenceKind,
    twists,
    splitting_bit: int = 0,
    from_trivial: bool = False,
    *,
    verify: bool = False,
) -> TunnelInvariants:
    """Complete invariant of a chain: closed-form slopes plus the bit rules.

    With `from_trivial` the chain grows out of the trivial knot, which needs
    the identity frame up to an overall sign; the leading slope is then
    reduced to the mod-1 class of its reciprocal.  With `verify` the slopes
    are recomputed by the step-by-step engine and any disagreement raises
    EngineMismatchError.
    """
    return _chain(frame, kind, twists, splitting_bit, from_trivial, verify)[0]
