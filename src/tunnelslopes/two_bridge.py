"""2-bridge knots: alternating even continued fractions, their upper-tunnel
slopes, and the crosswalk to drop chains grown out of the trivial knot.

A 2-bridge position is encoded here by the alternating even continued
fraction [2*signs[d], 2*turns[d], ..., 2*signs[0], 2*turns[0]], stored
innermost pair first; every sign is +-1.  Its upper tunnel has an invariant
computable directly from the encoding, and the same tunnel arises from a
chain of drop moves on the identity frame whose twist counts the encoding
determines, so the two computations must always agree.

The crosswalk is one rule both ways: twist count n[i] = 2*turns[i] +
(signs[i-1] + signs[i]) // 2, the innermost pair reading a virtual -1 sign.
"""

from __future__ import annotations

from .frames import SplitKind, validate_frame
from .iteration import (
    SequenceKind,
    TwistSequence,
    as_twists,
    assemble_invariants,
    position_coords,
)
from .slopes import Frozen, TunnelInvariants, _set, chain_slope, pair_class


def _offset(prev_sign: int, sign: int) -> int:
    """Twist count minus twice the turn: +1 or -1 for equal signs, 0 otherwise."""
    return (prev_sign + sign) // 2


class TwoBridgeFraction(Frozen):
    """An alternating even continued fraction, innermost pair first.

    Construction enforces the structural rules: equal positive lengths, signs
    +-1, integer turns, and every derived step twist nonzero; it keeps the
    step twists it derived.  The classical hypothesis also demands
    turns[0] != 0; `validate_cf` adds that check, while `twists_to_cf` may
    build the single flagged turns[0] == 0 family so that every nonzero
    leading twist count has a preimage.
    """

    __slots__ = ("signs", "turns", "_steps")
    _fields = ("signs", "turns")

    def __init__(self, signs: tuple[int, ...], turns: tuple[int, ...]) -> None:
        signs, turns = tuple(signs), tuple(turns)
        if len(signs) != len(turns):
            raise ValueError(f"length mismatch: {len(signs)} signs vs {len(turns)} turns")
        if not signs:
            raise ValueError("empty continued fraction")
        for i, (sign, turn) in enumerate(zip(signs, turns)):
            # type(...) is int also rejects True and False, which are ints to isinstance
            if type(sign) is not int or sign not in (1, -1):
                raise ValueError(f"sign entries must be +-1, got {sign!r} at position {i}")
            if type(turn) is not int:
                raise ValueError(f"turn entries must be integers, got {turn!r} at position {i}")
        steps = tuple([2 * turns[i] + _offset(signs[i - 1], signs[i]) for i in range(1, len(signs))])
        if 0 in steps:
            raise ValueError(
                f"step twist vanishes at position {steps.index(0) + 1}: "
                "opposite adjacent signs with turn 0"
            )
        _set(self, "signs", signs)
        _set(self, "turns", turns)
        _set(self, "_steps", steps)

    def step_twists(self) -> tuple[int, ...]:
        """Twist counts of the chained joins, one per position past the innermost."""
        return self._steps

    @property
    def flags(self) -> tuple[str, ...]:
        out = []
        if self.turns[0] == 0:
            out.append("b0-zero")
        if any(turn == 0 for turn in self.turns[1:]):
            out.append("b-zero")
        return tuple(out)

    def text(self) -> str:
        """Outermost-first display form with doubled entries."""
        parts = []
        for sign, turn in zip(reversed(self.signs), reversed(self.turns)):
            parts.append(str(2 * sign))
            parts.append(str(2 * turn))
        return "[" + ",".join(parts) + "]"


def validate_cf(signs, turns) -> TwoBridgeFraction:
    """Validate under the full classical hypotheses.

    On top of the structural rules checked at construction, the leading turn
    must be nonzero; that failure gets its own distinct message.
    """
    cf = TwoBridgeFraction(tuple(signs), tuple(turns))
    if cf.turns[0] == 0:
        raise ValueError("leading turn must be nonzero")
    return cf


def semisimple_slopes(cf: TwoBridgeFraction) -> TunnelInvariants:
    """Invariant of the upper tunnel of the 2-bridge position.

    The leading invariant is a mod-1 class fixed by the innermost pair; each
    later slope is -2 * (previous sign) + 1/(step twist).  Both are built
    from integer pairs already in lowest terms: 2b/(4b+1) or (2b-1)/(4b-1)
    for the leading class, (c*n + 1)/n for each later slope.  All bits are 0:
    these tunnels retain a disk of the innermost splitting all the way up.
    """
    lead_turn = cf.turns[0]
    if cf.signs[0] == 1:
        first = pair_class(2 * lead_turn, 4 * lead_turn + 1)
    else:
        first = pair_class(2 * lead_turn - 1, 4 * lead_turn - 1)
    rest = tuple(
        chain_slope(-2 * cf.signs[i - 1], k, position_coords(i, SplitKind.DROP_RHO))
        for i, k in enumerate(cf.step_twists(), start=1)
    )
    return TunnelInvariants(first, rest, (0,) * len(cf.signs))


def cf_to_twists(cf: TwoBridgeFraction) -> TwistSequence:
    """Twist counts of the drop chain on the identity frame matching the fraction.

    The leading count follows the crosswalk rule with the virtual -1 sign;
    the rest are the step twists.
    """
    lead = 2 * cf.turns[0] + _offset(-1, cf.signs[0])
    return TwistSequence((lead, *cf.step_twists()))


def twists_to_cf(twists) -> TwoBridgeFraction:
    """Inverse of `cf_to_twists`, defined for every nonzero twist sequence.

    Parities force everything: an even count flips the sign relative to the
    previous position (the virtual -1 for the leading count), an odd one
    keeps it, and the turn is then the unique integer giving that count back.
    The leading count -1 lands on the flagged turns[0] == 0 family, the one
    case outside the classical hypothesis.
    """
    signs, turns = [], []
    prev = -1
    for n in as_twists(twists).entries:
        sign = prev if n % 2 else -prev
        signs.append(sign)
        turns.append((n - _offset(prev, sign)) // 2)
        prev = sign
    return TwoBridgeFraction(tuple(signs), tuple(turns))


class CorrespondenceReport(Frozen):
    """Both routes to one tunnel invariant and whether they agreed.

    `bridge_invariants` comes straight from the continued fraction,
    `chain_invariants` from replaying the matching drop chain; `match` is
    their exact comparison, computed from the two on each read rather than
    stored, so a report can never contradict itself and a failure is
    reportable, never dropped.
    """

    __slots__ = _fields = ("cf", "twists", "bridge_invariants", "chain_invariants")

    def __init__(self, cf, twists, bridge_invariants, chain_invariants) -> None:
        _set(self, "cf", cf)
        _set(self, "twists", twists)
        _set(self, "bridge_invariants", bridge_invariants)
        _set(self, "chain_invariants", chain_invariants)

    @property
    def match(self) -> bool:
        return self.bridge_invariants == self.chain_invariants


# The frame of every chain grown out of the trivial knot here.
_IDENTITY_FRAME = validate_frame(1, 0, 0, 1)


def verify_correspondence(cf: TwoBridgeFraction) -> CorrespondenceReport:
    """Check that the drop chain reproduces the 2-bridge tunnel invariant exactly.

    Runs the chain out of the trivial knot with the matching twist counts and
    compares complete invariants.  `match` should be True for every fraction;
    a False is a failure of the package, and callers are expected to surface
    it.
    """
    twists = cf_to_twists(cf)
    bridge = semisimple_slopes(cf)
    chain = assemble_invariants(
        _IDENTITY_FRAME,
        SequenceKind.DROP_RHO_PURE,
        twists,
        splitting_bit=0,
        from_trivial=True,
    )
    return CorrespondenceReport(cf, twists, bridge, chain)
