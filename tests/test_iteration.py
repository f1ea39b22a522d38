import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tunnelslopes.iteration as iteration
from tunnelslopes import (
    EngineMismatchError,
    FareyFrame,
    SequenceKind,
    SplitKind,
    TwistSequence,
    assemble_invariants,
    binary_invariants,
    closed_form_slopes,
    invariants_equal,
    oracle_slopes,
    position_coords,
    splitting_tunnel_slope,
    step_sign,
    validate_frame,
)
from tunnelslopes.cli import main
from tunnelslopes.verify import frames_in_box

IDENTITY = validate_frame(1, 0, 0, 1)
TREFOIL_FRAME = validate_frame(2, 3, 1, 2)

nonzero_small = st.integers(-3, 3).filter(lambda n: n != 0)
twist_lists = st.lists(nonzero_small, min_size=1, max_size=6)
all_kinds = st.sampled_from(list(SequenceKind))
box_frames = st.sampled_from(frames_in_box(3))


def test_step_sign():
    assert step_sign(3) == 1
    assert step_sign(-7) == 1
    assert step_sign(2) == -1
    assert step_sign(-4) == -1
    with pytest.raises(ValueError):
        step_sign(0)


def test_sign_tables_examples():
    # one (mult, sign) pair per join; the last twist count only shapes pairs past the end
    assert iteration._cached_tables((5,)) == ((1, 1),)
    assert iteration._cached_tables((5, 2)) == ((1, 1), (2, 1))
    assert iteration._cached_tables((2, 3)) == ((1, 1), (0, -1))
    assert iteration._cached_tables((2, 3, 5)) == ((1, 1), (0, -1), (1, -1))
    assert iteration._cached_tables((2, 3, 5)) == iteration._cached_tables((-2, 7, 1))


@given(twist_lists)
def test_sign_tables_against_products(entries):
    """Independent re-derivation: signs as raw products, mults as sums of tail products."""
    pairs = iteration._cached_tables(tuple(entries))
    assert len(pairs) == len(entries)
    eps = [step_sign(n) for n in entries]
    for k, (mult, sign) in enumerate(pairs):
        prod = 1
        for e in eps[:k]:
            prod *= e
        assert sign == prod
        total = 1
        for r in range(k):
            tail = 1
            for e in eps[r:k]:
                tail *= e
            total += tail
        assert mult == total


@given(twist_lists)
def test_sign_table_identities(entries):
    pairs = iteration._cached_tables(tuple(entries))
    for mult, sign in pairs:
        assert abs(sign) == 1
    for n, (mult, sign), (next_mult, next_sign) in zip(entries, pairs, pairs[1:]):
        assert next_mult - step_sign(n) * mult == 1
        assert next_sign == step_sign(n) * sign


def test_twist_sequence_validation():
    with pytest.raises(ValueError):
        TwistSequence(())
    with pytest.raises(ValueError):
        TwistSequence((2, 0, 3))
    t = TwistSequence.parse("2,-3")
    assert t.entries == (2, -3)
    assert t.text() == "2,-3"
    assert list(t) == [2, -3]
    assert len(t) == 2 and t[1] == -3


def test_twist_sequence_rejects_bools():
    # True == 1 as an int, but it printed as "True,2", which parse cannot read back
    for entries in ((True, 2), (2, False)):
        with pytest.raises(ValueError, match="nonzero integers"):
            TwistSequence(entries)
    with pytest.raises(ValueError, match="nonzero integers"):
        TwistSequence.parse("True,2")


def test_position_coords():
    assert position_coords(0, SplitKind.DROP_RHO) == "(λ,λ⁰)"
    assert position_coords(0, SplitKind.LIFT_LAMBDA) == "(ρ,ρ⁰)"
    assert position_coords(1, SplitKind.DROP_RHO) == "(τ,τ⁰)"
    assert position_coords(2, SplitKind.DROP_RHO) == "(γ^0)"
    assert position_coords(3, SplitKind.LIFT_RHO) == "(γ^1)"


def test_kind_metadata():
    k = SequenceKind.DROP_RHO_PURE
    assert k.initial_split is SplitKind.DROP_RHO
    assert not k.mixed
    assert SequenceKind.DROP_RHO_MIXED_TAU.mixed
    assert SequenceKind.LIFT_LAMBDA_PURE.initial_split is SplitKind.LIFT_LAMBDA


def test_closed_form_examples():
    slopes = closed_form_slopes(IDENTITY, SequenceKind.DROP_RHO_PURE, [2, 3])
    assert [s.value for s in slopes] == [Fraction(5, 2), Fraction(-5, 3)]
    slopes = closed_form_slopes(TREFOIL_FRAME, SequenceKind.DROP_RHO_PURE, [2, 1])
    assert [s.value for s in slopes] == [Fraction(41, 2), Fraction(-7)]


def test_closed_form_coordinate_tags():
    slopes = closed_form_slopes(TREFOIL_FRAME, SequenceKind.DROP_RHO_PURE, [2, 1, 1, 1])
    assert [s.coords for s in slopes] == [
        "(λ,λ⁰)",
        "(τ,τ⁰)",
        "(γ^0)",
        "(γ^1)",
    ]


@given(box_frames, all_kinds, st.integers(-5, 5).filter(lambda n: n != 0))
def test_singleton_chain_is_single_splitting(f, kind, n):
    only = closed_form_slopes(f, kind, [n])[0]
    single = splitting_tunnel_slope(f, kind.initial_split, n)
    assert only.value == single.value
    assert only.coords == single.coords


def test_oracle_trace_frozen_example():
    slopes, trace = oracle_slopes(TREFOIL_FRAME, SequenceKind.DROP_RHO_PURE, [2, 1])
    assert [s.value for s in slopes] == [Fraction(41, 2), Fraction(-7)]
    first, second = trace
    assert first.c_prev.pair() == (3, 5)
    assert first.upper.pair() == (3, 5) and first.lower.pair() == (2, 3)
    assert first.linking == 10
    assert second.c_prev.pair() == (-1, -2)
    assert second.linking == -4
    assert second.slope.value == -7


def test_oracle_trace_mixed_example():
    slopes, trace = oracle_slopes(IDENTITY, SequenceKind.DROP_RHO_MIXED_TAU, [2, 3])
    assert [s.value for s in slopes] == [Fraction(5, 2), Fraction(1, 3)]
    step = trace[1]
    assert step.c_prev.pair() == (0, 1)
    assert step.upper.pair() == (1, 1)
    assert step.lower.pair() == (0, 1)
    assert step.linking == 0


def test_trace_json_lines_shape(capsys):
    code = main(["iterate", "--frame", "1,0,0,1", "--kind", "drop-rho-pure", "--twists", "2,3", "--trace"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0 and len(lines) == 3
    record = json.loads(lines[0])
    assert list(record) == ["k", "c_prev", "upper", "lower", "linking", "slope"]
    assert record["slope"] == "5/2"


@given(box_frames, all_kinds, twist_lists)
def test_trace_slope_is_doubled_linking_plus_twist(f, kind, entries):
    _, trace = oracle_slopes(f, kind, entries)
    for step, n in zip(trace, entries):
        assert step.slope.value == 2 * step.linking + Fraction(1, n)
        assert step.upper.m * step.lower.ell == step.linking


@settings(max_examples=300)
@given(st.sampled_from(frames_in_box(5)), all_kinds, twist_lists)
def test_engines_agree(f, kind, entries):
    closed = closed_form_slopes(f, kind, entries)
    replayed, _ = oracle_slopes(f, kind, entries)
    assert closed == replayed
    assert [s.coords for s in closed] == [s.coords for s in replayed]


@given(box_frames, all_kinds, st.lists(st.integers(1, 3), min_size=2, max_size=5), st.data())
def test_later_parity_only_matters(f, kind, entries, data):
    """Adding 2 to one twist count moves only that step's slope."""
    entries = tuple(entries)
    j = data.draw(st.integers(0, len(entries) - 1))
    bumped = tuple(n + 2 if i == j else n for i, n in enumerate(entries))
    base = closed_form_slopes(f, kind, entries)
    moved = closed_form_slopes(f, kind, bumped)
    for i, (a, b) in enumerate(zip(base, moved)):
        if i == j:
            assert b.value - a.value == Fraction(1, entries[j] + 2) - Fraction(1, entries[j])
        else:
            assert a == b


def test_binary_invariants_examples():
    assert binary_invariants(SequenceKind.DROP_RHO_PURE, 3, 1) == [1, 0, 0]
    assert binary_invariants(SequenceKind.DROP_RHO_MIXED_TAU, 3, 0) == [0, 1, 0]
    assert binary_invariants(SequenceKind.LIFT_LAMBDA_PURE, 1, 0) == [0]
    assert binary_invariants(SequenceKind.LIFT_RHO_MIXED_TAU, 1, 1) == [1]
    assert binary_invariants(SequenceKind.LIFT_RHO_MIXED_TAU, 2, 1) == [1, 1]
    with pytest.raises(ValueError):
        binary_invariants(SequenceKind.DROP_RHO_PURE, 0, 0)
    with pytest.raises(ValueError):
        binary_invariants(SequenceKind.DROP_RHO_PURE, 2, 2)


def test_binary_invariants_reject_a_bool_bit():
    # True == 1, but its bits would serialize as [true,0] and key apart from the int ones
    for bit in (True, False):
        with pytest.raises(ValueError, match="splitting bit"):
            binary_invariants(SequenceKind.DROP_RHO_PURE, 2, bit)
    with pytest.raises(ValueError, match="splitting bit"):
        assemble_invariants(TREFOIL_FRAME, SequenceKind.DROP_RHO_PURE, (2, 1), True)


def test_assemble_examples():
    inv = assemble_invariants(IDENTITY, SequenceKind.DROP_RHO_PURE, [2, 3], 0, True)
    assert inv.to_dict() == {"first": "[2/5]", "rest": ["-5/3"], "binary": [0, 0]}
    inv = assemble_invariants(TREFOIL_FRAME, SequenceKind.DROP_LAMBDA_PURE, [1], 0, False)
    assert inv.to_dict() == {"first": "11/1", "rest": [], "binary": [0]}
    inv = assemble_invariants(TREFOIL_FRAME, SequenceKind.DROP_RHO_MIXED_TAU, [2, 1], 1, False)
    assert inv.binary == (1, 1)


def test_assemble_from_trivial_needs_identity_frame():
    with pytest.raises(ValueError):
        assemble_invariants(TREFOIL_FRAME, SequenceKind.DROP_RHO_PURE, [2], 0, True)
    # the negated identity is fine
    neg = FareyFrame(-1, 0, 0, -1)
    inv = assemble_invariants(neg, SequenceKind.DROP_RHO_PURE, [2, 3], 0, True)
    assert inv.to_dict()["first"] == "[2/5]"


def test_assemble_verify_cross_checks(monkeypatch):
    assemble_invariants(TREFOIL_FRAME, SequenceKind.LIFT_RHO_MIXED_TAU, [2, -3, 4], 0, False, verify=True)
    real = iteration.chain_slope

    def corrupted(c, n, coords):
        return real(c + 2, n, coords)

    # the oracle builds its slopes without chain_slope, so only the closed form goes wrong
    monkeypatch.setattr(iteration, "chain_slope", corrupted)
    with pytest.raises(EngineMismatchError):
        assemble_invariants(
            TREFOIL_FRAME, SequenceKind.LIFT_RHO_MIXED_TAU, [2, -3, 4], 0, False, verify=True
        )


def test_eight_kinds_distinct_on_sample():
    invs = [assemble_invariants(TREFOIL_FRAME, kind, (2, 3), 0, False) for kind in SequenceKind]
    for i, a in enumerate(invs):
        for b in invs[i + 1:]:
            assert not invariants_equal(a, b)
