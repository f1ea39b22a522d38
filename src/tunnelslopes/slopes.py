"""Exact slope values, their mod-1 classes, and the complete tunnel invariant.

A slope is an exact rational, held by `Slope` as the integer pair (num, den)
in lowest terms with den > 0.  Equality and hashing compare that pair, so
structural equality is equality of rational numbers; no floats appear
anywhere.  Apart from the one `iteration.oracle_slopes` builds per join on
purpose, every `fractions.Fraction` is built here: `Slope.value` each time it
is read (`text()` reads it), and the representative a mod-1 class
(`SimpleSlope`) keeps, built once per class.  This module adds the thin
layer the rest of the package builds on: text serialization, the mod-1
reduction applied to the leading slope of a chain grown out of the trivial
knot, and the record pairing a slope sequence with its bit sequence.  It
also holds the package's one record encoder, `dump_line`, which writes every
JSON line the package prints or stores, and its one decoder, `read_json`:
every command loads this module, so none loads another to print or read JSON.

Every chain slope has the form c + 1/n, an integer c (twice a linking
number) plus the twist term of a join with n != 0 half-twists.  Its lowest
terms are the integer pair (c*n + 1, n), since any common divisor of c*n + 1
and n divides 1; `chain_slope` stores that pair as it is, the sign of n
moving to the numerator, with no `Fraction` and no rational addition.
Mod-1 classes are likewise taken on integer pairs (`pair_class`): num mod
den over den.

`Frozen` is the base of the package's immutable value classes.

Validation happens once, at the boundary.  Every public constructor checks
its arguments in full.  Values the package builds from values it has already
checked go through `Frozen._trusted` instead, which takes one such value per
slot, in `__slots__` order, and checks nothing: `pair_class` builds its
`SimpleSlope` that way, and the two invariant routes (`iteration._chain`,
`two_bridge.semisimple_slopes`) build their `TunnelInvariants` that way.
`chain_slope` checks nothing either: every caller passes a nonzero int n and
a tag the package built.  Pickling and copying rebuild through the public
constructor, so a value that leaves the process is checked again.
"""

from __future__ import annotations

import json
from fractions import Fraction

_set = object.__setattr__  # the one way a `Frozen` field gets its value, in `__init__` or `_trusted`
_new = object.__new__  # an instance before any slot is set, for `Frozen._trusted`


class Frozen:
    """Immutable value with its fields in `__slots__`, each set once in `__init__`.

    `_fields` names the constructor arguments: `repr` shows them and pickling
    and copying pass them back to the constructor.  `_trusted` is the private
    constructor for values the package built from values it already checked:
    it takes one such value per slot, in `__slots__` order, and checks
    nothing; the public constructor keeps every check.  Equality and hashing
    compare `_key()`, all of `_fields` unless a class narrows it; objects of
    different classes never compare equal.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    @classmethod
    def _trusted(cls, *values):
        names = cls.__slots__
        # a length check, not `zip(..., strict=True)`: its keyword dict costs on every engine case
        if len(values) != len(names):
            raise ValueError(f"{cls.__name__} takes one value per slot {names}, got {len(values)}")
        obj = _new(cls)
        for i, name in enumerate(names):
            _set(obj, name, values[i])
        return obj

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (self.__class__, tuple(getattr(self, name) for name in self._fields))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({shown})"


def format_rational(x: Fraction) -> str:
    """Serialize as "num/den", keeping the denominator even when it is 1."""
    return f"{x.numerator}/{x.denominator}"


# The shapes of the texts `format_rational` and `SimpleSlope.text` write, in ASCII digits; the catalog
# checks loaded slope texts against them, and neither holds the "," or "|" `invariants_key` joins with
_SLOPE_TEXT = r"-?[0-9]+/[0-9]+"
_FIRST_TEXT = rf"{_SLOPE_TEXT}|\[[0-9]+/[0-9]+\]"


# CPython's `json` accelerator, built once at import: `JSONEncoder.encode` builds a fresh one, with its
# closure and circular-reference dict, on every call, and that setup was most of a short record's cost.
# `markers=None` drops the circular-reference check: a kept encoder could not reset its dict after a
# refused record, and every record is a fresh tree of dicts, lists, strings, ints and bools, none
# holding itself (a list that did would raise RecursionError, not json's ValueError).  The arguments
# are `json.dumps(obj, separators=(",", ":"), ensure_ascii=False)`'s: markers, default, string
# encoder, indent, key and item separators, sort_keys, skipkeys, allow_nan.
_ENCODE = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring, None, ":", ",", False, False, True
)


def dump_line(obj) -> str:
    """Compact JSON with a fixed key order: the one serialized form of every record."""
    return "".join(_ENCODE(obj, 0))


def read_json(text: str, what: str):
    """The package's one JSON decoder; a refusal, RecursionError too, raises `ValueError(f"{what}: ...")`."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{what}: {exc}") from None


def _as_exact(value) -> Fraction:
    # bool is an int subclass, so Fraction(True) would quietly read it as 1
    if isinstance(value, (float, bool)):
        raise TypeError(f"{type(value).__name__}s are not exact; pass Fraction or int")
    if isinstance(value, Fraction):
        return value
    # `Fraction()` would also parse a text or take a `Decimal`
    if not isinstance(value, int):
        raise TypeError(f"a slope value must be a Fraction or an int, got {type(value).__name__}")
    return Fraction(value)


class Slope(Frozen):
    """A slope value tagged with the disk pair it is measured against.

    The value is stored as `num`/`den` in lowest terms with `den > 0`, and
    `value` is the matching `Fraction`, built when read.  The tag is
    bookkeeping only.  Two slopes are equal exactly when their values are
    equal: the measuring pair is determined by the position of the slope in
    its sequence, so it carries no information of its own.
    """

    __slots__ = ("num", "den", "coords")
    _fields = ("value", "coords")

    def __init__(self, value: Fraction, coords: str) -> None:
        if not coords:
            raise ValueError("slope coordinate tag must be nonempty")
        if type(value) is not Fraction:
            value = _as_exact(value)
        _set(self, "num", value.numerator)
        _set(self, "den", value.denominator)
        _set(self, "coords", coords)

    @property
    def value(self) -> Fraction:
        return Fraction(self.num, self.den)

    # the pair alone, written out rather than built as a `_key` tuple: the engines compare slope lists here
    def __eq__(self, other):
        if other.__class__ is not Slope:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def text(self) -> str:
        return format_rational(self.value)


def chain_slope(c: int, n: int, coords: str) -> Slope:
    """The slope c + 1/n of a join with n half-twists, stored as its lowest terms (c*n + 1)/n."""
    num = c * n + 1
    if n < 0:
        num, n = -num, -n
    slope = Slope.__new__(Slope)
    _set(slope, "num", num)
    _set(slope, "den", n)
    _set(slope, "coords", coords)
    return slope


class SimpleSlope(Frozen):
    """A slope taken mod 1, stored as its canonical representative in [0, 1)."""

    __slots__ = _fields = ("representative",)

    def __init__(self, representative: Fraction) -> None:
        _set(self, "representative", _as_exact(representative) % 1)

    def __eq__(self, other):
        if other.__class__ is not SimpleSlope:
            return NotImplemented
        return self.representative == other.representative

    def __hash__(self) -> int:
        return hash(self.representative)

    def text(self) -> str:
        return f"[{format_rational(self.representative)}]"


simple_class = SimpleSlope  # perfbench pin (test_perfbench.py): delete after ROADMAP item 2


# perfbench pin (spans.py): delete after ROADMAP item 2
def slope_to_simple(x) -> SimpleSlope:
    """Mod-1 class of the reciprocal of a nonzero slope.

    The leading slope of a chain grown out of the trivial knot is only
    defined up to this reduction, which is what survives of it.
    """
    x = _as_exact(x)
    if x == 0:
        raise ZeroDivisionError("slope 0 has no reciprocal")
    return pair_class(x.denominator, x.numerator)


def pair_class(num: int, den: int) -> SimpleSlope:
    """Mod-1 class of num/den, for a nonzero den, taken on the integers."""
    if den < 0:
        num, den = -num, -den
    return SimpleSlope._trusted(Fraction(num % den, den))  # num % den is already in [0, den)


class TunnelInvariants(Frozen):
    """Slope sequence plus bit sequence; together they decide tunnel equality.

    `first` is a SimpleSlope when the chain was grown out of the trivial knot
    and a full Slope otherwise; the two forms never compare equal.  There is
    one bit per twisted join, the initial splitting included, so `binary` is
    exactly one longer than `rest`.  At most two bits are ever set, and when
    two are, they are adjacent; construction enforces that shape.
    """

    __slots__ = _fields = ("first", "rest", "binary")

    def __init__(self, first: SimpleSlope | Slope, rest: tuple[Slope, ...], binary: tuple[int, ...]) -> None:
        if not isinstance(first, (SimpleSlope, Slope)):
            raise TypeError(f"first invariant must be a Slope or SimpleSlope, got {type(first).__name__}")
        rest = tuple(rest)
        binary = tuple(binary)
        for entry in rest:
            if not isinstance(entry, Slope):
                raise TypeError(f"rest entries must be Slope, got {type(entry).__name__}")
        ones = binary.count(1)
        # the type test refuses True and 1.0, which count as 1 but serialize as true and 1.0
        if [*map(type, binary)].count(int) != len(binary) or ones + binary.count(0) != len(binary):
            raise ValueError("binary invariants must be 0/1 bits")
        if len(binary) != 1 + len(rest):
            raise ValueError(
                f"need one bit per join: {len(rest)} later slopes require "
                f"{1 + len(rest)} bits, got {len(binary)}"
            )
        if ones > 2 or (ones == 2 and binary[binary.index(1) + 1] != 1):
            raise ValueError(f"at most two bits may be set, adjacent when two: {list(binary)}")
        _set(self, "first", first)
        _set(self, "rest", rest)
        _set(self, "binary", binary)

    def __eq__(self, other):
        if other.__class__ is not TunnelInvariants:
            return NotImplemented
        return self.first == other.first and self.rest == other.rest and self.binary == other.binary

    def __hash__(self) -> int:
        return hash((self.first, self.rest, self.binary))

    def to_dict(self) -> dict:
        """Canonical serialization; coordinate tags are excluded, like in equality."""
        return {
            "first": self.first.text(),
            "rest": [slope.text() for slope in self.rest],
            "binary": list(self.binary),
        }


# perfbench pin (spans.py): delete after ROADMAP item 2
def invariants_equal(a: TunnelInvariants, b: TunnelInvariants) -> bool:
    return a == b
