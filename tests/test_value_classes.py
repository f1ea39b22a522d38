"""The contract every value class keeps: immutable, picklable, copyable, hashable
by value, and printed in the `Name(field=value, ...)` form.

The repr strings are fixed literals, not derived from the code under test.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from tunnelslopes.frames import FareyFrame, HomologyClass
from tunnelslopes.iteration import TraceStep, TwistSequence
from tunnelslopes.slopes import SimpleSlope, Slope, TunnelInvariants
from tunnelslopes.two_bridge import TwoBridgeFraction, verify_correspondence
from tunnelslopes.verify import GridResult


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
    object.__setattr__(forced, "_steps", (99,))
    pairs.append((TwoBridgeFraction((1, -1), (1, 2)), forced))
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
    assert "_steps" not in repr(forced)
    assert Slope(Fraction(5, 2), "(γ^0)") != SimpleSlope(Fraction(5, 2))
    assert FareyFrame(2, 3, 1, 2) != FareyFrame(1, 2, 2, 3)
