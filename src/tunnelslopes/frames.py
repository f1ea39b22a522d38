"""Torus-knot splitting frames and the slopes of single splitting moves.

A frame records two torus-knot parameter pairs (p, q) and (r, s) sitting on
neighboring levels of a thickened torus; the knot being split has parameters
(p+r, q+s).  A splitting move peels one of the two constituents onto its own
level, below ("drop") or above ("lift") the remaining circle, and rejoins the
two circles with a pair of banded arcs.

Slopes fall out of homology bookkeeping.  In the ordered longitude/meridian
basis, a circle with class (ell, m) on an upper level links one with class
(ell', m') on a lower level in m * ell' points, and each disk slope below is
twice such a linking number.  All of it is integer arithmetic: a tunnel slope
c + 1/n goes to `chain_slope` as integers, like every later join of a chain,
and `slopes` builds the rational value when it is read.  `FareyFrame` and
`splitting_tunnel_slope` check their arguments; nothing is checked again.

The single move is a chain's first join, so this module also owns the join
rules every chain shares: `step_sign`, a twist count's check and parity;
`position_coords`, the disk pair each slope is measured against, and
`_position_tags`, its memo; and `_oriented_pairs`, the move's orientation.
"""

from __future__ import annotations

from enum import Enum
from math import gcd

from .slopes import Frozen, Slope, _set, chain_slope

RHO_COORDS = "(ρ,ρ⁰)"
LAMBDA_COORDS = "(λ,λ⁰)"
TAU_COORDS = "(τ,τ⁰)"

DEGENERATE_BOUND = 2  # composite parameters this small give a trivial or 2-bridge composite knot


class SplitKind(Enum):
    """The four single splitting moves.

    The name says which constituent is peeled off (the (r, s) one for the
    lambda moves, the (p, q) one for the rho moves) and whether the peeled
    copy drops below or lifts above.  Each member carries both facts as
    plain attributes: `drops`, and `splits_rho` for the (p, q) constituent.
    """

    DROP_LAMBDA = "drop-lambda"
    LIFT_LAMBDA = "lift-lambda"
    DROP_RHO = "drop-rho"
    LIFT_RHO = "lift-rho"

    def __init__(self, value: str) -> None:
        # read off the value: the sibling members do not exist yet while this runs
        self.drops = value.startswith("drop-")
        self.splits_rho = value.endswith("-rho")


class HomologyClass(Frozen):
    """A first-homology class of the thickened torus, ordered (longitude, meridian)."""

    __slots__ = _fields = ("ell", "m")

    def __init__(self, ell: int, m: int) -> None:
        _set(self, "ell", ell)
        _set(self, "m", m)

    def __add__(self, other: "HomologyClass") -> "HomologyClass":
        return HomologyClass(self.ell + other.ell, self.m + other.m)

    def __rmul__(self, k: int) -> "HomologyClass":
        return HomologyClass(k * self.ell, k * self.m)

    # perfbench pin (spans.py): delete after ROADMAP item 2
    def __neg__(self) -> "HomologyClass":
        return HomologyClass(-self.ell, -self.m)

    def pair(self) -> tuple[int, int]:
        return (self.ell, self.m)


class FareyFrame(Frozen):
    """Parameters (p, q) and (r, s) of the two splitting constituents.

    The constructor demands integer entries, both pairs coprime and cross
    determinant p*s - q*r equal to +-1, so the two pairs are Farey neighbors
    and the composite (p+r, q+s) is their mediant; each failure raises its
    own message.  `checked=False` (`validate_frame(..., bypass=True)`) skips
    all but the integer check for exploration and marks everything computed
    from the frame as unverified.
    """

    __slots__ = _fields = ("p", "q", "r", "s", "checked")

    def __init__(self, p: int, q: int, r: int, s: int, checked: bool = True) -> None:
        for value in (p, q, r, s):
            # type(...) is int also rejects True and False, whose text would not parse back
            if type(value) is not int:
                raise ValueError(f"frame entries must be integers, got {value!r}")
        if checked:
            if gcd(p, q) != 1:
                raise ValueError(f"({p},{q}) is not a coprime pair")
            if gcd(r, s) != 1:
                raise ValueError(f"({r},{s}) is not a coprime pair")
            det = p * s - q * r
            if det not in (1, -1):
                raise ValueError(f"frame determinant p*s - q*r must be +-1, got {det}")
        _set(self, "p", p)
        _set(self, "q", q)
        _set(self, "r", r)
        _set(self, "s", s)
        _set(self, "checked", checked)

    def _key(self) -> tuple:
        return (self.p, self.q, self.r, self.s)  # `checked` is bookkeeping, like a slope's coords

    @property
    def degenerate(self) -> bool:
        """True when the composite knot is trivial or 2-bridge rather than a true torus knot."""
        return abs(self.p + self.r) <= DEGENERATE_BOUND or abs(self.q + self.s) <= DEGENERATE_BOUND

    @property
    def flags(self) -> tuple[str, ...]:
        out = []
        if self.degenerate:
            out.append("degenerate-frame")
        if self.p + self.r < 0 or self.q + self.s < 0:
            out.append("negative-composite")
        if not self.checked:
            out.append("unverified-bypass")
        return tuple(out)

    def text(self) -> str:
        return f"{self.p},{self.q},{self.r},{self.s}"

    @classmethod
    def parse(cls, text: str, *, bypass: bool = False) -> "FareyFrame":
        message = "frame text needs four comma-separated integers"
        entries = parse_ints(text, message)
        if len(entries) != 4:
            raise ValueError(f"{message}, got {text!r}")
        return validate_frame(*entries, bypass=bypass)


def parse_ints(text: str, message: str) -> tuple[int, ...]:
    """The comma-separated integers of `text`, each read by `int()`; unreadable text raises `message`."""
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{message}, got {text!r}") from None


def validate_frame(p: int, q: int, r: int, s: int, *, bypass: bool = False) -> FareyFrame:
    """The checked frame, or with `bypass` the unchecked one; the checks are `FareyFrame`'s."""
    return FareyFrame(p, q, r, s, checked=not bypass)


def step_sign(n: int) -> int:
    """+1 when the twist count is odd, -1 when even.

    An odd number of half-twists lets the strand coming back from the joined
    copy keep its direction; an even number reverses it.
    """
    if type(n) is not int:
        raise ValueError(f"twist count must be an integer, got {n!r}")
    if n == 0:
        raise ValueError("twist count must be nonzero")
    return 1 if n % 2 else -1


def nonzero_range(bound: int) -> tuple[int, ...]:
    """All nonzero integers in [-bound, bound], ascending: the twist counts of a grid."""
    return tuple(n for n in range(-bound, bound + 1) if n != 0)


def position_coords(k: int, initial: SplitKind) -> str:
    """Coordinate tag for the k-th slope of a chain.

    The first slope is measured against the unpeeled constituent's disk pair,
    the second against the composite knot's, and each later one against the
    disk replaced two joins earlier.
    """
    if type(k) is not int:
        raise ValueError(f"slope positions are integers, got {k!r}")
    if k < 0:
        raise ValueError(f"slope positions start at 0, got {k}")
    if k == 0:
        return LAMBDA_COORDS if initial.splits_rho else RHO_COORDS
    if k == 1:
        return TAU_COORDS
    return f"(γ^{k - 2})"


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


def _oriented_pairs(frame: FareyFrame, kind: SplitKind) -> tuple[tuple[int, int], tuple[int, int]]:
    """The move's (peeled, kept) constituent pairs, each read (ell, m) after a drop and (m, ell) after a lift."""
    rho, lam = (frame.p, frame.q), (frame.r, frame.s)
    peeled, kept = (rho, lam) if kind.splits_rho else (lam, rho)
    if not kind.drops:
        peeled, kept = peeled[::-1], kept[::-1]
    return peeled, kept


def splitting_disk_slope(frame: FareyFrame, kind: SplitKind) -> Slope:
    """Slope of the splitting move's disk before any twisting, measured against a chain's first disk pair.

    The value is twice the linking number of the upper circle with the lower
    one after the peel: the composite knot is upper after a drop, the peeled
    copy after a lift.  In the pairs of `_oriented_pairs`, that is 2*a*(b + d).
    """
    (a, b), (_, d) = _oriented_pairs(frame, kind)
    return Slope(2 * a * (b + d), position_coords(0, kind))


def splitting_tunnel_slope(frame: FareyFrame, kind: SplitKind, n: int) -> Slope:
    """Slope of the tunnel made by rejoining with n half-twists: disk slope + 1/n.

    n = 0 is rejected, as at every join (`step_sign`); with no twist the move does not produce a new tunnel.
    """
    step_sign(n)
    disk = splitting_disk_slope(frame, kind)
    return chain_slope(disk.num, n, disk.coords)
