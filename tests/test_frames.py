from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tunnelslopes import (
    FareyFrame,
    HomologyClass,
    SplitKind,
    splitting_disk_slope,
    splitting_tunnel_slope,
    validate_frame,
)
from tunnelslopes.frames import parse_ints
from tunnelslopes.verify import frames_in_box

box_frames = st.sampled_from(frames_in_box(3))
kinds = st.sampled_from(list(SplitKind))


def test_validate_accepts_valid_frames():
    for tup in [(2, 3, 1, 2), (1, 0, 0, 1), (3, 5, 2, 3), (-1, 0, 0, -1)]:
        f = validate_frame(*tup)
        # brute-force recheck of the hypotheses
        assert gcd(f.p, f.q) == 1
        assert gcd(f.r, f.s) == 1
        assert abs(f.p * f.s - f.q * f.r) == 1
        assert f.checked


def test_validate_distinct_errors():
    with pytest.raises(ValueError, match=r"\(2,4\) is not a coprime pair"):
        validate_frame(2, 4, 1, 2)
    with pytest.raises(ValueError, match=r"\(4,6\) is not a coprime pair"):
        validate_frame(2, 3, 4, 6)
    with pytest.raises(ValueError, match="determinant"):
        validate_frame(1, 0, 1, 2)


def test_validate_rejects_bool_entries_with_and_without_bypass():
    # True == 1, but the frame's text "True,0,0,1" could not be parsed back
    for bypass in (False, True):
        with pytest.raises(ValueError, match="frame entries must be integers, got True"):
            validate_frame(True, 0, 0, 1, bypass=bypass)
        with pytest.raises(ValueError, match="frame entries must be integers, got False"):
            validate_frame(1, 0, False, 1, bypass=bypass)


def test_constructor_runs_the_checks_unless_told_not_to():
    # a frame marked checked has passed every check that validate_frame runs
    with pytest.raises(ValueError, match=r"\(2,4\) is not a coprime pair"):
        FareyFrame(2, 4, 1, 2)
    with pytest.raises(ValueError, match="determinant"):
        FareyFrame(1, 0, 1, 2)
    with pytest.raises(ValueError, match="frame entries must be integers, got True"):
        FareyFrame(True, 0, 0, 1, checked=False)
    f = FareyFrame(2, 4, 1, 2, checked=False)
    assert f == validate_frame(2, 4, 1, 2, bypass=True) and f.flags == ("unverified-bypass",)
    assert FareyFrame(2, 3, 1, 2) == validate_frame(2, 3, 1, 2)


def test_bypass_marks_unverified():
    f = validate_frame(2, 4, 1, 2, bypass=True)
    assert not f.checked
    assert "unverified-bypass" in f.flags


def test_degenerate_flagging():
    assert validate_frame(1, 0, 0, 1).degenerate
    assert "degenerate-frame" in validate_frame(1, 0, 0, 1).flags
    g = validate_frame(2, 3, 1, 2)
    assert not g.degenerate
    assert g.flags == ()
    neg = validate_frame(-2, -3, -1, -2)
    assert "negative-composite" in neg.flags


@pytest.mark.parametrize(
    "frame, composite, degenerate",
    [
        # |p+r| at the bound and one past it, with |q+s| >= 3
        ((1, 1, 1, 2), (2, 3), True),
        ((-1, -1, -1, -2), (-2, -3), True),
        ((1, 1, 2, 3), (3, 4), False),
        # |q+s| at the bound and one past it, with |p+r| >= 3
        ((1, 1, 2, 1), (3, 2), True),
        ((-1, -1, -2, -1), (-3, -2), True),
        ((1, 1, 3, 2), (4, 3), False),
    ],
)
def test_degenerate_bound_is_inclusive(frame, composite, degenerate):
    f = validate_frame(*frame)
    assert (f.p + f.r, f.q + f.s) == composite
    assert f.degenerate is degenerate
    assert ("degenerate-frame" in f.flags) is degenerate


@pytest.mark.parametrize("frame", [(1, -1, 3, -2), (-1, 1, -3, 2)])
def test_negative_composite_on_either_side_alone(frame):
    # composites (4, -3) and (-4, 3): one negative entry, neither degenerate
    assert validate_frame(*frame).flags == ("negative-composite",)


def test_frame_text_round_trip():
    f = validate_frame(2, 3, 1, 2)
    assert f.text() == "2,3,1,2"
    assert FareyFrame.parse("2,3,1,2") == f
    with pytest.raises(ValueError, match="frame text needs four comma-separated integers, got '2,3,1'"):
        FareyFrame.parse("2,3,1")


def test_parse_ints_lets_int_judge_each_part():
    # what int() reads, the reader reads: spaces, underscores and non-ASCII digits included
    assert parse_ints(" 1,1_0,-٣,+2", "m") == (1, 10, -3, 2)
    for text in ("", "1,,2", "1.0", "x", "True"):
        with pytest.raises(ValueError) as info:
            parse_ints(text, "integers please")
        assert str(info.value) == f"integers please, got {text!r}"


def test_homology_arithmetic():
    u = HomologyClass(1, 2)
    v = HomologyClass(3, 5)
    assert u + v == HomologyClass(4, 7)
    assert -2 * u == HomologyClass(-2, -4)
    assert -u == HomologyClass(-1, -2)
    assert v.pair() == (3, 5)


def test_disk_slope_examples():
    g = validate_frame(2, 3, 1, 2)
    assert splitting_disk_slope(g, SplitKind.DROP_LAMBDA).value == 10
    assert splitting_disk_slope(g, SplitKind.LIFT_RHO).value == 18
    f = validate_frame(1, 0, 0, 1)
    assert splitting_disk_slope(f, SplitKind.DROP_RHO).value == 2
    assert splitting_disk_slope(g, SplitKind.DROP_LAMBDA).coords == "(ρ,ρ⁰)"
    assert splitting_disk_slope(g, SplitKind.DROP_RHO).coords == "(λ,λ⁰)"


@given(box_frames, kinds)
def test_disk_slope_is_a_linking_slope(f, kind):
    """Each formula is the doubled linking number of the split-apart circles."""
    peeled = f.rho_class if kind.splits_rho else f.lambda_class
    if kind.drops:
        upper, lower = f.tau_class, peeled
    else:
        upper, lower = peeled, f.tau_class
    assert splitting_disk_slope(f, kind).value == 2 * upper.m * lower.ell


def test_tunnel_slope_examples():
    f = validate_frame(1, 0, 0, 1)
    g = validate_frame(2, 3, 1, 2)
    assert splitting_tunnel_slope(f, SplitKind.DROP_RHO, 2).value == Fraction(5, 2)
    assert splitting_tunnel_slope(g, SplitKind.DROP_LAMBDA, 1).value == 11
    assert splitting_tunnel_slope(g, SplitKind.DROP_RHO, -3).value == Fraction(59, 3)


def test_tunnel_slope_rejects_untwisted():
    with pytest.raises(ValueError):
        splitting_tunnel_slope(validate_frame(1, 0, 0, 1), SplitKind.DROP_RHO, 0)


@given(box_frames, kinds, st.integers(-9, 9).filter(lambda n: n != 0))
def test_tunnel_slope_offset(f, kind, n):
    disk = splitting_disk_slope(f, kind)
    tunnel = splitting_tunnel_slope(f, kind, n)
    assert tunnel.value - disk.value == Fraction(1, n)
    assert tunnel.coords == disk.coords


@given(box_frames, kinds)
def test_negated_frame_same_disk_slopes(f, kind):
    neg = FareyFrame(-f.p, -f.q, -f.r, -f.s)
    assert splitting_disk_slope(neg, kind).value == splitting_disk_slope(f, kind).value
