from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunnelslopes import (
    CorrespondenceReport,
    SimpleSlope,
    TwoBridgeFraction,
    cf_to_twists,
    semisimple_slopes,
    twists_to_cf,
    validate_cf,
    verify_correspondence,
)
from tunnelslopes.verify import cf_pairs, twist_tuples

sign_lists = st.lists(st.sampled_from((-1, 1)), min_size=1, max_size=5)
nonzero_turns = st.integers(-4, 4).filter(lambda n: n != 0)


@st.composite
def fractions_2b(draw):
    signs = tuple(draw(sign_lists))
    turns = tuple(draw(st.tuples(*[nonzero_turns] * len(signs))))
    return validate_cf(signs, turns)


def test_validation():
    cf = validate_cf([1, 1], [1, 1])
    assert cf.step_twists() == (3,)
    assert validate_cf([-1], [2]).flags == ()
    with pytest.raises(ValueError, match="step twist vanishes"):
        validate_cf([1, -1], [1, 0])
    with pytest.raises(ValueError, match="step twist vanishes at position 2"):
        TwoBridgeFraction((1, 1, -1), (1, 1, 0))
    with pytest.raises(ValueError, match="length mismatch"):
        TwoBridgeFraction((1,), (1, 2))
    with pytest.raises(ValueError, match=r"must be \+-1"):
        TwoBridgeFraction((2,), (1,))
    with pytest.raises(ValueError, match="leading turn"):
        validate_cf([1], [0])
    with pytest.raises(ValueError, match="empty"):
        TwoBridgeFraction((), ())


def test_bool_signs_and_turns_are_rejected():
    # True == 1, but a bool entry would serialize as `true` in the fraction's sign or turn list
    with pytest.raises(ValueError, match=r"sign entries must be \+-1, got True at position 0"):
        TwoBridgeFraction((True,), (1,))
    with pytest.raises(ValueError, match=r"sign entries must be \+-1, got True at position 0"):
        validate_cf((True, -1), (1, 2))
    with pytest.raises(ValueError, match="turn entries must be integers, got True at position 1"):
        validate_cf((1, -1), (1, True))
    with pytest.raises(ValueError, match="turn entries must be integers, got 1.0 at position 0"):
        TwoBridgeFraction((1,), (1.0,))


def test_leading_zero_turn_is_constructible_but_flagged():
    # the image of lead twist -1 under the inverse map
    cf = twists_to_cf([-1])
    assert cf.signs == (-1,) and cf.turns == (0,)
    assert cf.flags == ("b0-zero",)
    with pytest.raises(ValueError):
        validate_cf(cf.signs, cf.turns)
    # a positive sign with turn 0 builds too, but its leading twist count would be 0
    cf = TwoBridgeFraction((1,), (0,))
    assert cf.flags == ("b0-zero",)
    with pytest.raises(ValueError):
        cf_to_twists(cf)


def test_interior_zero_turn_flag():
    # equal adjacent signs keep the step twist odd, so a zero turn is legal there
    cf = validate_cf([1, 1], [1, 0])
    assert cf.step_twists() == (1,)
    assert cf.flags == ("b-zero",)
    cf = twists_to_cf([3, 2])
    assert (cf.signs, cf.turns) == ((-1, 1), (2, 1))
    assert cf.flags == ()


def test_semisimple_frozen_values():
    inv = semisimple_slopes(validate_cf([1, 1], [1, 1]))
    assert inv.to_dict() == {"first": "[2/5]", "rest": ["-5/3"], "binary": [0, 0]}
    inv = semisimple_slopes(validate_cf([-1], [1]))
    assert inv.to_dict() == {"first": "[1/3]", "rest": [], "binary": [0]}
    inv = semisimple_slopes(validate_cf([1, -1], [1, 1]))
    assert [s.text() for s in inv.rest] == ["-3/2"]
    assert inv.rest[0].coords == "(τ,τ⁰)"


def test_cf_to_twists_examples():
    assert cf_to_twists(validate_cf([1, 1], [1, 1])).entries == (2, 3)
    assert cf_to_twists(validate_cf([-1], [2])).entries == (3,)
    assert cf_to_twists(validate_cf([-1, 1], [1, 2])).entries == (1, 4)


def test_twists_to_cf_examples():
    cf = twists_to_cf([2, 3])
    assert (cf.signs, cf.turns) == ((1, 1), (1, 1))
    cf = twists_to_cf([1])
    assert (cf.signs, cf.turns) == ((-1,), (1,))
    cf = twists_to_cf([4, -2])
    assert (cf.signs, cf.turns) == ((1, -1), (2, -1))


def test_round_trip_exhaustive_small():
    for tw in twist_tuples(3, 3):
        assert cf_to_twists(twists_to_cf(tw)).entries == tw
    for signs, turns in cf_pairs(2, 2):
        cf = validate_cf(signs, turns)
        back = twists_to_cf(cf_to_twists(cf))
        assert (back.signs, back.turns) == (signs, turns)


@given(st.lists(st.integers(-9, 9).filter(lambda n: n != 0), min_size=1, max_size=7))
def test_round_trip_property(tw):
    tw = tuple(tw)
    assert cf_to_twists(twists_to_cf(tw)).entries == tw


@given(fractions_2b())
def test_rest_slope_structure(cf):
    """Every later slope is an even integer plus a unit fraction."""
    inv = semisimple_slopes(cf)
    for slope, k in zip(inv.rest, cf.step_twists()):
        even_part = slope.value - Fraction(1, k)
        assert even_part.denominator == 1 and even_part.numerator in (-2, 2)
    assert set(inv.binary) <= {0}


@given(st.integers(-9, 9).filter(lambda n: n != 0))
def test_leading_invariant_bracket_identity(n0):
    cf = twists_to_cf([n0])
    inv = semisimple_slopes(cf)
    assert inv.first == SimpleSlope(Fraction(n0, 2 * n0 + 1))


@settings(max_examples=200)
@given(fractions_2b())
def test_correspondence_property(cf):
    report = verify_correspondence(cf)
    assert report.match
    assert report.twists == cf_to_twists(cf)


def test_correspondence_is_deterministic():
    cf = validate_cf([1, -1, -1], [2, 1, -3])
    assert verify_correspondence(cf) == verify_correspondence(cf)


def test_correspondence_report_match_follows_its_invariants():
    good = verify_correspondence(validate_cf([1], [1]))
    assert good.match is True
    other = semisimple_slopes(validate_cf([1], [2]))
    assert other != good.bridge_invariants
    bad = CorrespondenceReport(good.cf, good.twists, good.bridge_invariants, other)
    assert bad.match is False
    with pytest.raises(AttributeError):
        bad.match = True


def test_cf_text():
    assert validate_cf([1, 1], [1, 1]).text() == "[2,2,2,2]"
    assert validate_cf([-1], [2]).text() == "[-2,4]"
    assert validate_cf([1, -1], [2, -1]).text() == "[-2,-2,2,4]"
