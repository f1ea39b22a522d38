"""The contract every value class keeps: immutable, picklable, copyable, hashable
by value, and printed in the `Name(field=value, ...)` form.  A value built by
the private `_trusted` constructor keeps it too, and equals what the public
constructor builds from the same fields.

The repr strings are fixed literals, not derived from the code under test.
"""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tunnelslopes.frames import FareyFrame, HomologyClass, validate_frame
from tunnelslopes.iteration import SequenceKind, TraceStep, TwistSequence, assemble_invariants
from tunnelslopes.slopes import SimpleSlope, Slope, TunnelInvariants, pair_class
from tunnelslopes.two_bridge import (
    TwoBridgeFraction,
    cf_to_twists,
    semisimple_slopes,
    twists_to_cf,
    validate_cf,
    verify_correspondence,
)
from tunnelslopes.verify import GridResult, frames_in_box


def _slope():
    return Slope(Fraction(5, 2), "(τ,τ⁰)")


def _h(ell, m):
    return HomologyClass(ell, m)


# name -> (builder of a fresh instance, a field to assign, its repr)
CASES = {
    "Slope": (_slope, "value", "Slope(value=Fraction(5, 2), coords='(τ,τ⁰)')"),
    "SimpleSlope": (
        lambda: SimpleSlope(Fraction(3, 2)), "representative", "SimpleSlope(representative=Fraction(1, 2))"
    ),
    "TunnelInvariants": (
        lambda: TunnelInvariants(SimpleSlope(Fraction(1, 3)), (_slope(),), (0, 0)),
        "binary",
        "TunnelInvariants(first=SimpleSlope(representative=Fraction(1, 3)), "
        "rest=(Slope(value=Fraction(5, 2), coords='(τ,τ⁰)'),), binary=(0, 0))",
    ),
    "HomologyClass": (lambda: _h(2, -3), "m", "HomologyClass(ell=2, m=-3)"),
    "FareyFrame": (lambda: FareyFrame(2, 3, 1, 2), "p", "FareyFrame(p=2, q=3, r=1, s=2, checked=True)"),
    "TwistSequence": (lambda: TwistSequence((2, -3)), "entries", "TwistSequence(entries=(2, -3))"),
    "TraceStep": (
        lambda: TraceStep(0, _h(1, 0), _h(0, 1), _h(1, 1), 1, _slope()),
        "linking",
        "TraceStep(k=0, c_prev=HomologyClass(ell=1, m=0), upper=HomologyClass(ell=0, m=1), "
        "lower=HomologyClass(ell=1, m=1), linking=1, slope=Slope(value=Fraction(5, 2), coords='(τ,τ⁰)'))",
    ),
    "TwoBridgeFraction": (
        lambda: TwoBridgeFraction((1, -1), (1, 2)), "turns", "TwoBridgeFraction(signs=(1, -1), turns=(1, 2))"
    ),
    "CorrespondenceReport": (
        lambda: verify_correspondence(TwoBridgeFraction((1,), (1,))),
        "cf",
        "CorrespondenceReport(cf=TwoBridgeFraction(signs=(1,), turns=(1,)), "
        "twists=TwistSequence(entries=(2,)), "
        "bridge_invariants=TunnelInvariants(first=SimpleSlope(representative=Fraction(2, 5)), rest=(), binary=(0,)), "
        "chain_invariants=TunnelInvariants(first=SimpleSlope(representative=Fraction(2, 5)), rest=(), binary=(0,)))",
    ),
    "GridResult": (lambda: GridResult(3, ()), "cases", "GridResult(cases=3, failures=())"),
}

params = pytest.mark.parametrize("name", list(CASES))


@params
def test_pickle_and_copy_round_trip(name):
    obj = CASES[name][0]()
    for clone in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert type(clone) is type(obj)
        assert clone == obj and repr(clone) == repr(obj)


@params
def test_fields_cannot_be_assigned_or_deleted(name):
    build, field, _ = CASES[name]
    obj = build()
    with pytest.raises(AttributeError):
        setattr(obj, field, 0)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    assert repr(obj) == repr(build())


@params
def test_equal_objects_hash_equal(name):
    a, b = CASES[name][0](), CASES[name][0]()
    assert a is not b and a == b and hash(a) == hash(b)


@params
def test_repr_keeps_its_format(name):
    assert repr(CASES[name][0]()) == CASES[name][2]


def test_tags_and_derived_fields_stay_out_of_equality():
    pairs = [
        (_slope(), Slope(Fraction(5, 2), "(γ^0)")),
        (FareyFrame(2, 3, 1, 2), FareyFrame(2, 3, 1, 2, checked=False)),
    ]
    forced = TwoBridgeFraction((1, -1), (1, 2))
    object.__setattr__(forced, "_twists", (99,))
    pairs.append((TwoBridgeFraction((1, -1), (1, 2)), forced))
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
    assert "_twists" not in repr(forced)
    assert Slope(Fraction(5, 2), "(γ^0)") != SimpleSlope(Fraction(5, 2))
    assert FareyFrame(2, 3, 1, 2) != FareyFrame(1, 2, 2, 3)


nonzero = st.integers(-9, 9).filter(bool)
twist_lists = st.lists(nonzero, min_size=1, max_size=7)
cf_fields = st.integers(1, 7).flatmap(
    lambda n: st.tuples(st.tuples(*[st.sampled_from((-1, 1))] * n), st.tuples(*[nonzero] * n))
)


def _same_value(private, public):
    """`private` came from a `_trusted` constructor; it must be indistinguishable from `public`."""
    assert type(private) is type(public)
    assert private == public and hash(private) == hash(public) and repr(private) == repr(public)
    # `Frozen.__reduce__` rebuilds through the public constructor, so this runs its checks again
    for clone in (pickle.loads(pickle.dumps(private)), copy.copy(private)):
        assert type(clone) is type(private) and clone == private and hash(clone) == hash(private)


@given(st.integers(-50, 50), st.integers(-50, 50).filter(bool))
def test_trusted_simple_slope_is_the_public_one(num, den):
    private = pair_class(num, den)
    _same_value(private, SimpleSlope(private.representative))
    _same_value(private, SimpleSlope(Fraction(num, den)))
    _same_value(SimpleSlope._trusted(private.representative), private)


@given(twist_lists, st.sampled_from(list(SequenceKind)), st.sampled_from(frames_in_box(2)), st.integers(0, 1))
def test_trusted_chain_invariants_are_the_public_ones(twists, kind, frame, bit):
    private = assemble_invariants(frame, kind, twists, bit)
    _same_value(private, TunnelInvariants(private.first, private.rest, private.binary))
    _same_value(TunnelInvariants._trusted(private.first, private.rest, private.binary), private)
    trivial = assemble_invariants(validate_frame(1, 0, 0, 1), kind, twists, bit, from_trivial=True)
    _same_value(trivial, TunnelInvariants(trivial.first, trivial.rest, trivial.binary))


@given(cf_fields)
def test_trusted_bridge_invariants_and_twists_are_the_public_ones(fields):
    try:
        cf = TwoBridgeFraction(*fields)
    except ValueError:
        return  # a vanishing step twist: not a fraction at all
    invariants = semisimple_slopes(cf)
    _same_value(invariants, TunnelInvariants(invariants.first, invariants.rest, invariants.binary))
    if cf.signs[0] == 1 and cf.turns[0] == 0:
        return  # leading count 0: `cf_to_twists` refuses it (test_two_bridge.py)
    twists = cf_to_twists(cf)
    _same_value(twists, TwistSequence(twists.entries))
    _same_value(TwistSequence._trusted(twists.entries), twists)


@given(twist_lists)
def test_trusted_fraction_is_the_public_one(twists):
    private = twists_to_cf(twists)
    public = TwoBridgeFraction(private.signs, private.turns)
    _same_value(private, public)
    # the derived twist counts are not part of equality, so compare them on their own
    assert private._twists == public._twists == tuple(twists)
    _same_value(TwoBridgeFraction._trusted(public.signs, public.turns, public._twists), public)
    if public.turns[0]:
        assert validate_cf(public.signs, public.turns) == private


# one value per slot: a `_trusted` call one short or one over is refused, never left with a slot unset
TRUSTED_FIELDS = {
    SimpleSlope: (Fraction(1, 3),),
    TwistSequence: ((2, -1),),
    TunnelInvariants: (SimpleSlope(Fraction(1, 3)), (), (0,)),
    TwoBridgeFraction: ((1,), (1,), (2,)),
}


@pytest.mark.parametrize("cls", list(TRUSTED_FIELDS), ids=lambda cls: cls.__name__)
def test_trusted_takes_exactly_one_value_per_slot(cls):
    fields = TRUSTED_FIELDS[cls]
    _same_value(cls._trusted(*fields), cls(*fields[: len(cls._fields)]))
    for wrong in (fields[:-1], (*fields, fields[-1])):
        with pytest.raises(ValueError, match=f"^{cls.__name__} takes one value per slot"):
            cls._trusted(*wrong)
