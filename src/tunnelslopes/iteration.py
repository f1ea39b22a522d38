"""Invariants of chained splitting constructions.

A chain starts with one of the four splitting moves and then keeps joining
fresh copies of a fixed knot, one join per entry of its twist sequence.  Two
independent engines compute the slope sequence:

* `closed_form_slopes` reads entry k's integer part as the linear form
  A*mult_k + B*sign_k, with (A, B) fixed per chain (`chain_coefficients`)
  and (mult_k, sign_k) one `join_step` on from the join before; `enumerate`
  extends each chain from its prefix by the same two rules, one join each;
* `oracle_slopes` replays the construction join by join, carrying the
  oriented homology class of the growing knot and reading each slope off a
  linking number; one placement rule, fixed for the chain, says which
  circle is upper.  On request it also returns the trace, one `TraceStep`
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

from .frames import FareyFrame, SplitKind, parse_ints, position_coords, step_sign
from .slopes import Frozen, SimpleSlope, Slope, TunnelInvariants, _set, chain_slope, pair_class


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
            step_sign(n)  # the twist-count rule; it refuses True, which would print as "True" and never parse back
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


@lru_cache(maxsize=8192)  # perfbench pin (bench.py): delete after ROADMAP item 2
def _cached_tables(entries: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The (mult, sign) pair of each join: the variables of the closed form's linear form.

    With e_k = step_sign(n_k) for the k-th twist count, the pairs obey

        mult_0 = sign_0 = 1
        sign_{k+1} = e_k * sign_k
        mult_{k+1} = 1 + e_k * mult_k

    so sign_k is the product of the first k step signs (always +-1).  In a
    pure chain the class of the knot assembled after k joins is
    mult_k*(joined knot) + sign_k*(other constituent); a mixed chain carries
    (mult_k - sign_k) copies of the composite knot instead.  Either way entry
    k's integer part is A*mult_k + B*sign_k for the chain's pair (A, B).
    """
    pairs = [(1, 1)]
    for n in entries[:-1]:
        pairs.append(join_step(pairs[-1], n))
    return tuple(pairs)


def join_step(pair: tuple[int, int], n: int) -> tuple[int, int]:
    """The next join's (mult, sign) after one with n half-twists and `pair`, taken whole: `*`-spread calls are slow."""
    e = step_sign(n)
    return 1 + e * pair[0], e * pair[1]


# The tags of the longest chain seen so far, one list per first tag, indexed by
# `initial.splits_rho`.  A longer chain swaps in a longer list and none is edited
# in place, so a list an engine is zipping with never changes under it.
_tag_lists = [[], []]


def _position_tags(length: int, initial: SplitKind) -> list[str]:
    """`position_coords(k, initial)` for k = 0 .. length - 1 at least; zip it with the slopes, never edit it."""
    tags = _tag_lists[initial.splits_rho]
    if len(tags) < length:
        tags = _tag_lists[initial.splits_rho] = [position_coords(k, initial) for k in range(length)]
    return tags


def chain_coefficients(frame: FareyFrame, kind: SequenceKind) -> tuple[int, int]:
    """The chain's coefficient pair (A, B); see `closed_form_slopes`."""
    initial = kind.initial_split
    peeled, kept = (frame.p, frame.q), (frame.r, frame.s)
    if not initial.splits_rho:
        peeled, kept = kept, peeled
    if not initial.drops:
        peeled, kept = peeled[::-1], kept[::-1]
    (a, b), (c, d) = peeled, kept
    return (2 * (a + c) * (b + d), -2 * c * (b + d)) if kind.mixed else (2 * a * b, 2 * a * d)


def closed_form_slopes(frame: FareyFrame, kind: SequenceKind, twists) -> list[Slope]:
    """Slope sequence of a chain: one orientation step, then one linear form.

    Take (a, b) from the peeled constituent, (p, q) for a rho move and
    (r, s) for a lambda move, and (c, d) from the kept one.  After a drop
    each pair reads (ell, m); after a lift it reads (m, ell).  The chain
    fixes one coefficient pair

        pure:  (A, B) = (2*a*b, 2*a*d)
        mixed: (A, B) = (2*(a + c)*(b + d), -2*c*(b + d))

    and with (mult, sgn) the k-th pair of `_cached_tables`, entry k is
    A*mult + B*sgn (twice the join's linking number) plus 1/n_k, which
    `chain_slope` builds from its integer lowest terms.  The first pair is
    (1, 1), so entry 0 always agrees with the initial move's own slope.
    """
    t = as_twists(twists)
    A, B = chain_coefficients(frame, kind)
    out = []
    tags = _position_tags(len(t.entries), kind.initial_split)
    for (mult, sgn), n, coords in zip(_cached_tables(t.entries), t.entries, tags):
        out.append(chain_slope(A * mult + B * sgn, n, coords))
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
    one, plus 1/n.  One placement rule holds for the whole chain: the old
    knot's class is upper exactly when the initial move drops xor the chain
    is mixed, and the other circle is always the accreted class.

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
    mixed = kind.mixed
    accreted, prev = (frame.tau_class, constituent) if mixed else (constituent, frame.tau_class)
    prev_upper = initial.drops != mixed
    slopes: list[Slope] = []
    steps: list[TraceStep] = []
    tags = _position_tags(len(t.entries), initial)
    for n, coords in zip(t.entries, tags):
        upper, lower = (prev, accreted) if prev_upper else (accreted, prev)
        link = upper.m * lower.ell
        slope = Slope(Fraction(2 * link * n + 1, n), coords)
        if trace:
            steps.append(TraceStep(len(steps), prev, upper, lower, link, slope))
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
    # type(...) is int also rejects True and False, which are ints to isinstance
    if type(steps) is not int:
        raise ValueError(f"join count must be an integer, got {steps!r}")
    if steps < 1:
        raise ValueError("a chain has at least its initial splitting")
    if type(splitting_bit) is not int or splitting_bit not in (0, 1):
        raise ValueError(f"splitting bit must be 0 or 1, got {splitting_bit!r}")
    bits = [0] * steps
    bits[0] = splitting_bit
    if kind.mixed and steps >= 2:
        bits[1] = 1
    return bits


class EngineMismatchError(RuntimeError):
    """The closed-form and step-by-step engines disagreed; this is an internal bug."""


def check_trivial_frame(frame: FareyFrame, from_trivial: bool) -> None:
    """Refuse a non-bool `from_trivial`, and a chain out of the trivial knot on a frame other than +-identity."""
    if type(from_trivial) is not bool:
        raise ValueError(f"from_trivial must be True or False, got {from_trivial!r}")
    if from_trivial and (frame.p, frame.q, frame.r, frame.s) not in ((1, 0, 0, 1), (-1, 0, 0, -1)):
        raise ValueError("a chain out of the trivial knot needs the identity frame, up to sign")


def lead_invariant(lead: Slope, from_trivial: bool) -> Slope | SimpleSlope:
    """The first invariant: the lead slope, or out of the trivial knot its reciprocal's mod-1 class."""
    return pair_class(lead.den, lead.num) if from_trivial else lead


def _chain(frame, kind, twists, splitting_bit, from_trivial, verify, trace=False):
    """Invariants and, if asked, the oracle's trace; `trace` alone skips the check, so a mismatch can be read."""
    t = as_twists(twists)
    check_trivial_frame(frame, from_trivial)
    slopes = closed_form_slopes(frame, kind, t)
    steps = ()
    if verify or trace:
        replayed, steps = oracle_slopes(frame, kind, t, trace=trace)
        if verify and replayed != slopes:
            raise EngineMismatchError(
                f"engines disagree for frame {frame.text()}, kind {kind.value}, twists {t.text()}"
            )
    bits = binary_invariants(kind, len(t), splitting_bit)
    # every part was built here from checked values: one bit per slope, shaped by `binary_invariants`
    return TunnelInvariants._trusted(lead_invariant(slopes[0], from_trivial), tuple(slopes[1:]), tuple(bits)), steps


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
