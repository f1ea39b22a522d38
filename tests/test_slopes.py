import math
import pickle
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tunnelslopes import SimpleSlope, Slope, TunnelInvariants
from tunnelslopes.slopes import chain_slope, format_rational, pair_class

rationals = st.fractions(max_denominator=1000)


def test_format_keeps_unit_denominator():
    assert format_rational(Fraction(0)) == "0/1"
    assert format_rational(Fraction(-5, 3)) == "-5/3"
    assert format_rational(Fraction(11)) == "11/1"


def test_simple_class_examples():
    assert SimpleSlope(Fraction(2, 5)).representative == Fraction(2, 5)
    assert SimpleSlope(Fraction(7, 5)).representative == Fraction(2, 5)
    assert SimpleSlope(Fraction(-3, 5)).representative == Fraction(2, 5)


@given(rationals, rationals)
def test_simple_class_separates_mod_one(x, y):
    same = SimpleSlope(x) == SimpleSlope(y)
    assert same == ((x - y).denominator == 1)


@given(rationals)
def test_simple_class_representative_canonical(x):
    rep = SimpleSlope(x).representative
    assert 0 <= rep < 1
    assert (x - rep).denominator == 1


def test_pair_class_of_a_reciprocal_examples():
    # the class of 1/x for x = 5/2, 7/3 and -1/2
    assert pair_class(2, 5) == SimpleSlope(Fraction(2, 5))
    assert pair_class(3, 7) == SimpleSlope(Fraction(3, 7))
    assert pair_class(2, -1) == SimpleSlope(0)


def test_pair_class_rejects_a_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        pair_class(1, 0)


def test_no_floats_anywhere():
    with pytest.raises(TypeError):
        SimpleSlope(0.5)
    with pytest.raises(TypeError):
        Slope(0.5, "(x)")


@pytest.mark.parametrize(
    "build",
    [
        lambda: Slope(True, "(x)"),
        lambda: Slope(False, "(x)"),
        lambda: SimpleSlope(True),
        lambda: SimpleSlope(False),
    ],
    ids=["Slope-True", "Slope-False", "SimpleSlope-True", "SimpleSlope-False"],
)
def test_bools_are_not_exact_values(build):
    # bool is an int subclass; read as 1 or 0 it would pass for a slope
    with pytest.raises(TypeError, match="bools are not exact"):
        build()


@pytest.mark.parametrize("value", ["2.5", "3/2", Decimal("0.1")], ids=repr)
def test_texts_and_decimals_are_not_slope_values(value):
    # `Fraction()` would parse a text and take a `Decimal`
    for build in (lambda: Slope(value, "(x)"), lambda: SimpleSlope(value)):
        with pytest.raises(TypeError, match="must be a Fraction or an int"):
            build()


def test_slope_equality_ignores_coords():
    assert Slope(Fraction(5, 2), "(a)") == Slope(Fraction(5, 2), "(b)")
    assert Slope(Fraction(5, 2), "(a)") != Slope(Fraction(7, 2), "(a)")
    with pytest.raises(ValueError):
        Slope(Fraction(1), "")


def test_simple_slope_never_equals_full_slope():
    assert SimpleSlope(Fraction(1, 2)) != Slope(Fraction(1, 2), "(a)")


def test_simple_slope_text():
    assert SimpleSlope(Fraction(7, 5)).text() == "[2/5]"
    assert SimpleSlope(Fraction(0)).text() == "[0/1]"


def _inv(first, rest, binary):
    return TunnelInvariants(first, tuple(rest), tuple(binary))


def test_invariants_shape_enforced():
    s = Slope(Fraction(1, 3), "(a)")
    with pytest.raises(ValueError):
        _inv(s, [s], [0])  # too few bits
    with pytest.raises(ValueError):
        _inv(s, [], [2])  # not a bit
    with pytest.raises(ValueError):
        _inv(s, [s, s, s], [1, 0, 1, 0])  # nonadjacent ones
    with pytest.raises(ValueError):
        _inv(s, [s, s, s], [1, 1, 1, 0])  # three ones
    with pytest.raises(TypeError):
        _inv(Fraction(1, 3), [], [0])
    with pytest.raises(TypeError):
        _inv(s, [Fraction(1, 3)], [0, 0])
    assert _inv(s, [s], [1, 1]).binary == (1, 1)


@pytest.mark.parametrize("bit", [True, False, 1.0, 0.0], ids=repr)
def test_invariants_refuse_bits_that_are_not_ints(bit):
    # True == 1 and 1.0 == 1, yet they serialize as true and 1.0, which no catalog line may hold
    s = Slope(Fraction(5, 2), "x")
    with pytest.raises(ValueError, match="binary invariants must be 0/1 bits"):
        _inv(s, [], [bit])
    with pytest.raises(ValueError, match="binary invariants must be 0/1 bits"):
        _inv(s, [s], [0, bit])


def test_invariants_equal_examples():
    a = _inv(SimpleSlope(Fraction(2, 5)), [Slope(Fraction(-5, 3), "(t)")], [0, 0])
    b = _inv(SimpleSlope(Fraction(2, 5)), [Slope(Fraction(-5, 3), "(u)")], [0, 0])
    assert a == b
    c = _inv(SimpleSlope(Fraction(2, 5)), [Slope(Fraction(-5, 3), "(t)")], [0, 1])
    assert a != c
    d = _inv(SimpleSlope(Fraction(7, 5)), [], [0])
    e = _inv(SimpleSlope(Fraction(2, 5)), [], [0])
    assert d == e
    f = _inv(Slope(Fraction(2, 5), "(t)"), [], [0])
    assert e != f  # mod-1 first vs full first


@given(rationals, rationals)
def test_exact_arithmetic_round_trips(x, y):
    assert (x + y) - y == x
    if y != 0:
        assert (x * y) / y == x


# The references below are plain Fraction arithmetic, kept here and shared
# with neither slope engine.
nonzero_ints = st.integers(-10**6, 10**6).filter(lambda n: n != 0)
small_nonzero = st.sampled_from((-2, -1, 1, 2))


@given(st.integers(-10**6, 10**6), st.one_of(nonzero_ints, small_nonzero))
def test_chain_slope_is_c_plus_one_over_n(c, n):
    slope = chain_slope(c, n, "(t)")
    assert slope.value == c + Fraction(1, n)
    assert slope.value.denominator == abs(n) and slope.value.numerator == (c * n + 1) * (1 if n > 0 else -1)
    assert slope.coords == "(t)"


@given(st.integers(-10**6, 10**6), st.one_of(nonzero_ints, small_nonzero))
def test_chain_slope_matches_the_public_constructor(c, n):
    slope = chain_slope(c, n, "(t)")
    for reference in (Slope(Fraction(c * n + 1, n), "(t)"), Slope(c + Fraction(1, n), "(t)")):
        assert slope == reference and hash(slope) == hash(reference)
        assert repr(slope) == repr(reference) and slope.text() == reference.text()
        assert slope.value == reference.value
    clone = pickle.loads(pickle.dumps(slope))
    assert clone == slope and repr(clone) == repr(slope)
    assert slope.den > 0 and math.gcd(slope.num, slope.den) == 1


def test_chain_slope_two_encodings_of_unit_twists():
    # c + 1/1 and (c + 2) + 1/(-1) are the same slope
    assert chain_slope(3, 1, "(a)") == chain_slope(5, -1, "(b)")
    assert chain_slope(0, -1, "(a)").value == Fraction(-1)


@given(st.integers(-10**6, 10**6), nonzero_ints)
def test_pair_class_matches_fraction_reference(num, den):
    cls = pair_class(num, den)
    assert cls == SimpleSlope(Fraction(num, den))
    assert 0 <= cls.representative < 1

