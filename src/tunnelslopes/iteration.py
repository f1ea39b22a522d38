"""Invariants of chained splitting constructions.

A chain starts with one of the four splitting moves and then keeps joining
fresh copies of a fixed knot, one join per entry of its twist sequence.  Two
independent engines compute the slope sequence:

* `closed_form_slopes` reads entry k's integer part as the linear form
  A*mult_k + B*sign_k, with (A, B) fixed per chain (`chain_coefficients`)
  and (mult_k, sign_k) one `join_step` on from the join before;
* `oracle_slopes` replays the construction join by join, carrying the
  oriented homology class of the growing knot and reading each slope off a
  linking number; one placement rule, fixed for the chain, says which
  circle is upper.  On request it also returns the trace, one `TraceStep`
  per join.  Only `iterate --trace` reads a trace, so no grid builds one.

The engines must agree everywhere.  `assemble_invariants(..., verify=True)`
checks that on the fly and raises `EngineMismatchError` on any disagreement,
which would mean a bug in one of them, never a property of the input.

`prefix_walk` is the one home of the walk order and of its one-level memory
bound; `enumerate`'s `chain_walk` is that walk plus the closed form's join.
A chain's descriptor has its writer (`descriptor_dict`) and its reader
(`parse_descriptor`) here, so `compare` reads one without the catalog.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .frames import (
    FareyFrame, HomologyClass, SplitKind, _oriented_pairs, _position_tags, nonzero_range, parse_ints, step_sign,
)
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


def descriptor_dict(
    frame: FareyFrame, kind: SequenceKind, twists: TwistSequence, splitting_bit: int, from_trivial: bool
) -> dict:
    """A chain's catalog descriptor: its inputs as text and plain values, enough to recompute its invariants."""
    return {
        "frame": frame.text(),
        # `_value_` is the member's plain attribute; `value` is an `enum.property`, run in Python on every read
        "kind": kind._value_,
        "twists": twists.text(),
        "splitting_bit": splitting_bit,
        "from_trivial": from_trivial,
    }


_DESCRIPTOR_KEYS = ("frame", "kind", "twists", "splitting_bit", "from_trivial")


def parse_descriptor(d: dict, *, bypass: bool = False):
    """Rebuild the computation inputs from a descriptor dict."""
    if not isinstance(d, dict):
        raise ValueError(f"descriptor must be a JSON object, got {type(d).__name__}")
    missing = [key for key in ("frame", "kind", "twists") if key not in d]
    if missing:
        raise ValueError(f"descriptor is missing {missing}")
    unknown = [key for key in d if key not in _DESCRIPTOR_KEYS]
    if unknown:
        raise ValueError(f"descriptor has unknown keys {unknown}")
    for key in ("frame", "kind", "twists"):
        if not isinstance(d[key], str):
            raise ValueError(f"descriptor {key} must be a string, got {d[key]!r}")
    splitting_bit = d.get("splitting_bit", 0)
    # type(...) is int also rejects True and False, which are ints to isinstance
    if type(splitting_bit) is not int or splitting_bit not in (0, 1):
        raise ValueError(f"descriptor splitting_bit must be the integer 0 or 1, got {splitting_bit!r}")
    from_trivial = d.get("from_trivial", False)
    if not isinstance(from_trivial, bool):
        raise ValueError(f"descriptor from_trivial must be true or false, got {from_trivial!r}")
    frame = FareyFrame.parse(d["frame"], bypass=bypass)
    kind = SequenceKind(d["kind"])
    twists = TwistSequence.parse(d["twists"])
    return frame, kind, twists, splitting_bit, from_trivial


def descriptor_invariants(descriptor: dict, *, bypass: bool = False) -> tuple[FareyFrame, TunnelInvariants]:
    """The frame a descriptor names and the invariants of its chain, through `parse_descriptor`."""
    frame, kind, twists, splitting_bit, from_trivial = parse_descriptor(descriptor, bypass=bypass)
    return frame, assemble_invariants(frame, kind, twists, splitting_bit, from_trivial)


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


def chain_coefficients(frame: FareyFrame, kind: SequenceKind) -> tuple[int, int]:
    """The chain's coefficient pair (A, B); see `closed_form_slopes`."""
    (a, b), (c, d) = _oriented_pairs(frame, kind.initial_split)
    return (2 * (a + c) * (b + d), -2 * c * (b + d)) if kind.mixed else (2 * a * b, 2 * a * d)


def closed_form_slopes(frame: FareyFrame, kind: SequenceKind, twists) -> list[Slope]:
    """Slope sequence of a chain: one orientation step, then one linear form.

    With (a, b) and (c, d) the initial move's peeled and kept pairs as
    `frames._oriented_pairs` orients them, the chain fixes one coefficient pair

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
    constituent = HomologyClass(frame.p, frame.q) if initial.splits_rho else HomologyClass(frame.r, frame.s)
    composite = HomologyClass(frame.p + frame.r, frame.q + frame.s)
    accreted, prev = (composite, constituent) if kind.mixed else (constituent, composite)
    prev_upper = initial.drops != kind.mixed
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


def prefix_walk(options, max_len: int, root, step):
    """Every choice tuple of length 1..max_len, in `verify.twist_tuples`' order, each its prefix's state plus one step.

    `step(state, choice, length)` is a generator: it yields the point, then returns the state that
    extends it, kept only while a next level exists and let go once extended: one level at most.
    """
    kept = [root]
    for length in range(1, max_len + 1):
        level, kept = kept[::-1], []
        keep = kept.append if length < max_len else id  # `id` drops a last-level state, bound to no name
        while level:
            state = level.pop()
            for choice in options:
                keep((yield from step(state, choice, length)))


def chain_walk(frame, kinds, max_len: int, n_bound: int, splitting_bit: int, from_trivial: bool):
    """`verify.chain_points`' points of one frame, in order, each as (frame, kind, twists, invariants dict).

    Per kind this is `prefix_walk` plus the closed form's join, whose state is (twists, first text,
    rest texts, the next join's (mult, sign)).  The caller checks the frame first.
    """
    opts = nonzero_range(n_bound)
    for kind in kinds:
        A, B = chain_coefficients(frame, kind)
        tags = _position_tags(max_len, kind.initial_split)
        bits = binary_invariants(kind, max_len, splitting_bit)  # a join's bit rests on its place alone

        def join(state, n, length):
            head, first, rest, pair = state
            slope = chain_slope(A * pair[0] + B * pair[1], n, tags[length - 1])
            if first is None:
                tw, text, texts = (n,), lead_invariant(slope, from_trivial).text(), ()
            else:
                tw, text, texts = head + (n,), first, rest + (slope.text(),)
            yield frame, kind, TwistSequence._trusted(tw), {"first": text, "rest": [*texts], "binary": bits[:length]}
            if length < max_len:
                return tw, text, texts, join_step(pair, n)

        yield from prefix_walk(opts, max_len, ((), None, (), (1, 1)), join)


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
