"""2-bridge knots: alternating even continued fractions, their upper-tunnel
slopes, and the crosswalk to drop chains grown out of the trivial knot.

A 2-bridge position is encoded here by the alternating even continued
fraction [2*signs[d], 2*turns[d], ..., 2*signs[0], 2*turns[0]], stored
innermost pair first; every sign is +-1.  Its upper tunnel has an invariant
computable directly from the encoding, and the same tunnel arises from a
chain of drop moves on the identity frame whose twist counts the encoding
determines, so the two computations must always agree.  The direct one folds
a lead rule, `_bridge_lead`, and an entry rule, `_bridge_entry`.

The crosswalk is one rule both ways: twist count n[i] = 2*turns[i] +
(signs[i-1] + signs[i]) // 2, the innermost pair reading a virtual -1 sign.
Construction of a `TwoBridgeFraction` applies it forward to every count;
`twists_to_cf` applies it back, each sign's flip or keep from `step_sign`.

Validation happens at the boundary: `TwoBridgeFraction(...)` checks the
structural rules and `validate_cf` adds the classical one, and a twist
sequence is checked by `TwistSequence` when `twists_to_cf` reads it.  What
is built from those checked values skips the checks: `twists_to_cf` builds
its fraction, `cf_to_twists` its twist sequence and `semisimple_slopes` its
invariants through `Frozen._trusted`, one value per slot.  `cf_to_twists`
keeps the one check that a valid fraction can fail, a leading count of 0,
which `step_sign` refuses.
"""

from __future__ import annotations

from .frames import SplitKind, _position_tags, step_sign, validate_frame
from .iteration import SequenceKind, TwistSequence, as_twists, assemble_invariants
from .slopes import Frozen, SimpleSlope, TunnelInvariants, _set, chain_slope, pair_class


class TwoBridgeFraction(Frozen):
    """An alternating even continued fraction, innermost pair first.

    Construction enforces the structural rules: equal positive lengths, signs
    +-1, integer turns, and every derived step twist nonzero; it keeps every
    twist count it derived, the leading one included.  The classical
    hypothesis also demands turns[0] != 0; `validate_cf` adds that check,
    while `twists_to_cf` may build the single flagged turns[0] == 0 family
    so that every nonzero leading twist count has a preimage.
    """

    __slots__ = ("signs", "turns", "_twists")
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
        twists = tuple([2 * turn + (prev + sign) // 2 for prev, sign, turn in zip((-1, *signs), signs, turns)])
        if 0 in twists[1:]:
            raise ValueError(
                f"step twist vanishes at position {twists.index(0, 1)}: "
                "opposite adjacent signs with turn 0"
            )
        _set(self, "signs", signs)
        _set(self, "turns", turns)
        _set(self, "_twists", twists)

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


def _bridge_lead(sign: int, turn: int) -> SimpleSlope:
    """The lead rule: the mod-1 class of the innermost pair, 2b/(4b+1) or (2b-1)/(4b-1), already in lowest terms."""
    return pair_class(2 * turn, 4 * turn + 1) if sign == 1 else pair_class(2 * turn - 1, 4 * turn - 1)


def _bridge_entry(sign: int) -> int:
    """The entry rule: a later slope's integer part, -2 * (previous sign)."""
    return -2 * sign


def semisimple_slopes(cf: TwoBridgeFraction) -> TunnelInvariants:
    """Invariant of the upper tunnel of the 2-bridge position: `_bridge_lead`, then `_bridge_entry` per later slope.

    Each later slope is the entry rule's integer part plus 1/(step twist),
    built from (c*n + 1)/n, already in lowest terms.  All bits are 0: these
    tunnels retain a disk of the innermost splitting all the way up.
    """
    # step i pairs with signs[i - 1]: zip stops at the shorter step list
    tags = _position_tags(len(cf.signs), SplitKind.DROP_RHO)[1:]
    rest = tuple([chain_slope(_bridge_entry(sign), n, tag) for sign, n, tag in zip(cf.signs, cf._twists[1:], tags)])
    return TunnelInvariants._trusted(_bridge_lead(cf.signs[0], cf.turns[0]), rest, (0,) * len(cf.signs))


def cf_to_twists(cf: TwoBridgeFraction) -> TwistSequence:
    """Twist counts of the drop chain on the identity frame matching the fraction: the counts it derived."""
    # the step twists were checked nonzero with the fraction; the lead is 0 for turns[0] == 0 under sign +1
    step_sign(cf._twists[0])
    return TwistSequence._trusted(cf._twists)


def twists_to_cf(twists) -> TwoBridgeFraction:
    """Inverse of `cf_to_twists`, defined for every nonzero twist sequence.

    Parities force everything: an even count flips the sign relative to the
    previous position (the virtual -1 for the leading count), an odd one
    keeps it, and the turn is then the unique integer giving that count back.
    The leading count -1 lands on the flagged turns[0] == 0 family, the one
    case outside the classical hypothesis.
    """
    entries = as_twists(twists).entries
    signs, turns = [], []
    prev = -1
    for n in entries:
        sign = step_sign(n) * prev
        signs.append(sign)
        turns.append((n - (prev + sign) // 2) // 2)
        prev = sign
    # each count comes back from its turn and signs, so the fraction's counts are the entries, already checked
    return TwoBridgeFraction._trusted(tuple(signs), tuple(turns), entries)


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
