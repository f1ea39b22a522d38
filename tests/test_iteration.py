import cProfile
import json
import os
import pickle
import pstats
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tunnelslopes.iteration as iteration
import tunnelslopes.verify as verify
from tunnelslopes import (
    EngineMismatchError,
    FareyFrame,
    SequenceKind,
    Slope,
    SplitKind,
    TwistSequence,
    assemble_invariants,
    binary_invariants,
    closed_form_slopes,
    oracle_slopes,
    position_coords,
    splitting_tunnel_slope,
    step_sign,
    validate_frame,
)
from tunnelslopes.cli import main
from tunnelslopes.verify import check_correspondence_case, check_oracle_case, frames_in_box, run_oracle_grid

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


# every kind's facts, written out: (initial_split, mixed) and (drops, splits_rho)
SEQUENCE_FACTS = {
    SequenceKind.DROP_RHO_PURE: (SplitKind.DROP_RHO, False),
    SequenceKind.DROP_RHO_MIXED_TAU: (SplitKind.DROP_RHO, True),
    SequenceKind.DROP_LAMBDA_PURE: (SplitKind.DROP_LAMBDA, False),
    SequenceKind.DROP_LAMBDA_MIXED_TAU: (SplitKind.DROP_LAMBDA, True),
    SequenceKind.LIFT_RHO_PURE: (SplitKind.LIFT_RHO, False),
    SequenceKind.LIFT_RHO_MIXED_TAU: (SplitKind.LIFT_RHO, True),
    SequenceKind.LIFT_LAMBDA_PURE: (SplitKind.LIFT_LAMBDA, False),
    SequenceKind.LIFT_LAMBDA_MIXED_TAU: (SplitKind.LIFT_LAMBDA, True),
}
SPLIT_FACTS = {
    SplitKind.DROP_LAMBDA: (True, False),
    SplitKind.LIFT_LAMBDA: (False, False),
    SplitKind.DROP_RHO: (True, True),
    SplitKind.LIFT_RHO: (False, True),
}


def test_kind_metadata():
    assert list(SEQUENCE_FACTS) == list(SequenceKind)
    assert list(SPLIT_FACTS) == list(SplitKind)
    for kind, (initial, mixed) in SEQUENCE_FACTS.items():
        assert kind.initial_split is initial, kind
        assert kind.mixed is mixed, kind
    for kind, (drops, splits_rho) in SPLIT_FACTS.items():
        assert kind.drops is drops, kind
        assert kind.splits_rho is splits_rho, kind


@pytest.mark.parametrize("member", list(SequenceKind) + list(SplitKind))
def test_kind_pickles_to_itself(member):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(member, protocol)) is member
    assert type(member)(member.value) is member


def _enum_calls(fn, *args) -> dict[str, int]:
    """Call count of each function of `enum.py` that fn(*args) calls, as cProfile sees them."""
    profiler = cProfile.Profile()
    profiler.runcall(fn, *args)
    return {
        function: stats[1]
        for (filename, _, function), stats in pstats.Stats(profiler).stats.items()
        if os.path.basename(filename) == "enum.py"
    }


def _oracle_plus_one(frame, kind, twists):
    """The oracle engine with every slope moved by 1."""
    slopes, steps = oracle_slopes(frame, kind, twists)
    return [Slope(slope.value + 1, slope.coords) for slope in slopes], steps


def test_engine_cases_never_call_into_enum(tmp_path, monkeypatch, capsys):
    # a kind's facts and its value text are plain attributes; a property or a dict keyed by members would show up here
    oracle_case = (validate_frame(2, 3, 1, 2), SequenceKind("lift-lambda-mixed-tau"), TwistSequence((3, -2, 5)))
    assert _enum_calls(check_oracle_case, oracle_case) == {}
    assert _enum_calls(check_correspondence_case, ((1, -1, 1), (2, 3, -1))) == {}
    # a mismatch's record names the kind as well
    monkeypatch.setattr(verify, "oracle_slopes", _oracle_plus_one)
    assert check_oracle_case(oracle_case)["kind"] == "lift-lambda-mixed-tau"
    assert _enum_calls(check_oracle_case, oracle_case) == {}

    # enumerate parses its arguments and walks the kinds once a run; nothing it does per catalog line calls enum
    def enumerate_calls(depth):
        catalog = tmp_path / f"depth-{depth}.jsonl"
        argv = ["enumerate", "--catalog", str(catalog), "--frame", "2,3,1,2", "--depth", str(depth), "--n-range", "1"]
        calls = _enum_calls(main, argv)
        return calls, len(catalog.read_text(encoding="utf-8").splitlines())

    main(["enumerate", "--catalog", str(tmp_path / "warm.jsonl"), "--frame", "2,3,1,2", "--depth", "1"])
    (short, short_lines), (long, long_lines) = enumerate_calls(1), enumerate_calls(2)
    capsys.readouterr()
    assert short_lines < long_lines
    assert short == long


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
    slopes, trace = oracle_slopes(TREFOIL_FRAME, SequenceKind.DROP_RHO_PURE, [2, 1], trace=True)
    assert [s.value for s in slopes] == [Fraction(41, 2), Fraction(-7)]
    first, second = trace
    assert first.c_prev.pair() == (3, 5)
    assert first.upper.pair() == (3, 5) and first.lower.pair() == (2, 3)
    assert first.linking == 10
    assert second.c_prev.pair() == (-1, -2)
    assert second.linking == -4
    assert second.slope.value == -7


def test_oracle_trace_mixed_example():
    slopes, trace = oracle_slopes(IDENTITY, SequenceKind.DROP_RHO_MIXED_TAU, [2, 3], trace=True)
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


def test_trace_steps_are_built_only_when_asked_for(monkeypatch):
    built = []
    original = iteration.TraceStep

    def counted(*fields):
        built.append(fields[0])
        return original(*fields)

    monkeypatch.setattr(iteration, "TraceStep", counted)
    kind, twists = SequenceKind.LIFT_RHO_MIXED_TAU, (3, -2, 5)
    assert run_oracle_grid(1, 1, 1).cases == 640
    assemble_invariants(TREFOIL_FRAME, kind, twists, verify=True)
    assert built == []
    _, trace = iteration._chain(TREFOIL_FRAME, kind, twists, 0, False, False, trace=True)
    assert built == [0, 1, 2] and [step.k for step in trace] == [0, 1, 2]


@given(box_frames, all_kinds, twist_lists)
def test_oracle_slopes_do_not_depend_on_the_trace(f, kind, entries):
    plain, no_trace = oracle_slopes(f, kind, entries)
    traced, trace = oracle_slopes(f, kind, entries, trace=True)
    assert no_trace == ()
    assert plain == traced
    assert [s.coords for s in plain] == [s.coords for s in traced]
    assert [step.slope for step in trace] == traced


@given(box_frames, all_kinds, twist_lists)
def test_trace_slope_is_doubled_linking_plus_twist(f, kind, entries):
    _, trace = oracle_slopes(f, kind, entries, trace=True)
    assert len(trace) == len(entries)
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
            assert a != b
