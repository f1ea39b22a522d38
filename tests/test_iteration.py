import cProfile
import json
import os
import pickle
import pstats
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tunnelslopes.frames as frames
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
    closed_form_slopes,
    oracle_slopes,
    semisimple_slopes,
    splitting_tunnel_slope,
    twists_to_cf,
    validate_cf,
    validate_frame,
    verify_correspondence,
)
from tunnelslopes.cli import main
from tunnelslopes.frames import HomologyClass, position_coords, splitting_disk_slope, step_sign
from tunnelslopes.iteration import binary_invariants
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


@pytest.mark.parametrize("n", [True, False, 3.0, 2.5], ids=repr)
def test_step_sign_refuses_a_count_that_is_not_an_int(n):
    # 2.5 % 2 and True % 2 are truthy, so both read as odd
    with pytest.raises(ValueError, match=r"^twist count must be an integer, got .+$"):
        step_sign(n)
    with pytest.raises(ValueError, match="^twist count must be nonzero$"):
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
        with pytest.raises(ValueError, match="^twist count must be an integer, got (True|False)$"):
            TwistSequence(entries)
    with pytest.raises(ValueError, match="nonzero integers"):
        TwistSequence.parse("True,2")


def test_position_coords():
    assert position_coords(0, SplitKind.DROP_RHO) == "(λ,λ⁰)"
    assert position_coords(0, SplitKind.LIFT_LAMBDA) == "(ρ,ρ⁰)"
    assert position_coords(1, SplitKind.DROP_RHO) == "(τ,τ⁰)"
    assert position_coords(2, SplitKind.DROP_RHO) == "(γ^0)"
    assert position_coords(3, SplitKind.LIFT_RHO) == "(γ^1)"


def test_position_coords_refuses_negative_positions():
    for k in (-1, -3):
        with pytest.raises(ValueError, match=f"slope positions start at 0, got {k}"):
            position_coords(k, SplitKind.DROP_RHO)


@pytest.mark.parametrize("k", [True, False, 3.0, 2.5], ids=repr)
def test_position_coords_refuses_positions_that_are_not_ints(k):
    # 2.5 would read "(γ^0.5)" and True would read as the composite's tag
    with pytest.raises(ValueError, match=r"^slope positions are integers, got .+$"):
        position_coords(k, SplitKind.DROP_RHO)


def test_tags_of_a_300_join_chain_in_every_engine():
    twists = [(2, -3, 1, 5, -1, -2)[k % 6] for k in range(300)]
    for kind in SequenceKind:
        initial = kind.initial_split
        replayed, _ = oracle_slopes(TREFOIL_FRAME, kind, twists)
        for slopes in (closed_form_slopes(TREFOIL_FRAME, kind, twists), replayed):
            assert [s.coords for s in slopes] == [position_coords(k, initial) for k in range(300)]
    bridge = semisimple_slopes(twists_to_cf(twists))
    assert [s.coords for s in bridge.rest] == [position_coords(k, SplitKind.DROP_RHO) for k in range(1, 300)]
    # a shorter chain afterwards reads the same tags off the longer shared list
    short = closed_form_slopes(TREFOIL_FRAME, SequenceKind.LIFT_LAMBDA_PURE, [1, 2, 3])
    assert [s.coords for s in short] == ["(ρ,ρ⁰)", "(τ,τ⁰)", "(γ^0)"]


DEEP_TWISTS = [(2, -3, 1, 5, -1, -2)[k % 6] for k in range(300)]


@pytest.mark.parametrize("frame", [TREFOIL_FRAME, validate_frame(3, 5, 1, 2), IDENTITY], ids=FareyFrame.text)
def test_the_engines_agree_on_300_join_chains(frame):
    # values, not only tags: a closed form that drifts from some late join on fails here
    for kind in SequenceKind:
        assert closed_form_slopes(frame, kind, DEEP_TWISTS) == oracle_slopes(frame, kind, DEEP_TWISTS)[0]


def test_the_routes_agree_on_300_deep_fractions():
    rng = random.Random(300)
    signs = [rng.choice((1, -1)) for _ in range(300)]
    turns = [rng.choice((-40, -3, -1, 1, 2, 40)) for _ in range(300)]
    for cf in (twists_to_cf(DEEP_TWISTS), validate_cf(signs, turns)):
        assert len(cf.signs) == 300 and cf.turns[0] != 0
        assert verify_correspondence(cf).match


@given(box_frames, all_kinds, twist_lists)
def test_the_oracle_folds_its_join_from_its_start(f, kind, entries):
    fixed, prev = iteration._oracle_start(f, kind)
    assert fixed[1] == (kind.initial_split.drops != kind.mixed)
    _, trace = oracle_slopes(f, kind, entries, trace=True)
    for step, n in zip(trace, entries):
        upper, lower, link, after = iteration._oracle_join(fixed, prev, n)
        assert (step.c_prev, step.upper, step.lower, step.linking) == (prev, upper, lower, link)
        assert after == fixed[0] + step_sign(n) * prev
        prev = after


@given(box_frames, all_kinds, twist_lists)
def test_the_closed_form_reads_each_joins_pair_out(f, kind, entries):
    coefficients, pair = iteration.chain_coefficients(f, kind), (1, 1)
    for slope, n in zip(closed_form_slopes(f, kind, entries), entries):
        assert slope.value == iteration._readout(coefficients, pair) + Fraction(1, n)
        pair = iteration.join_step(pair, n)



MULT_BOUND = 32


def test_the_engines_agree_at_every_joint_state_up_to_a_bound():
    # breadth first from each chain's start over every state the engines reach together, the closed form's
    # (mult, sign) with the oracle's class, each side moved by its own steps alone, until |mult| > MULT_BOUND.
    # A fault at one deep state fails here: (mult, sign) = (10, 1) takes ten odd twist counts, past the
    # criteria's 4 joins and the hypothesis tests' 6
    states, disagreements = 0, []
    for frame in frames_in_box(1):
        for kind in SequenceKind:
            coefficients = iteration.chain_coefficients(frame, kind)
            fixed, first = iteration._oracle_start(frame, kind)
            level, seen = [((1, 1), first)], {(1, 1): first.pair()}
            while level:
                reached = []
                for pair, before in level:
                    for n in (1, 2):  # one twist count of each parity: the step sign is all a join reads of n
                        _, _, link, after = iteration._oracle_join(fixed, before, n)
                        if 2 * link != iteration._readout(coefficients, pair):
                            disagreements.append((frame.text(), kind.value, pair, before.pair(), n))
                        state = iteration.join_step(pair, n)
                        if abs(state[0]) > MULT_BOUND:
                            continue
                        # the oracle's class is a function of (mult, sign): a second class at one (mult, sign)
                        # is a disagreement, and the walk, which would never end on such a pair of steps, stops
                        if state not in seen:
                            seen[state] = after.pair()
                            reached.append((state, after))
                        elif seen[state] != after.pair():
                            disagreements.append((frame.text(), kind.value, state, after.pair(), seen[state]))
                level = reached
            states += len(seen)
    assert not disagreements, f"{len(disagreements)} disagreements, first {disagreements[:3]}"
    assert states == len(frames_in_box(1)) * len(SequenceKind) * 4 * MULT_BOUND

def test_a_chains_first_coefficients_sum_to_its_moves_disk_slope():
    # entry 0 of every chain is its initial move's slope: mult = sign = 1 there, so it reads A + B
    pairs = [(frame, kind) for frame in frames_in_box(3) for kind in SequenceKind]
    assert len(pairs) == 1856
    for frame, kind in pairs:
        assert splitting_disk_slope(frame, kind.initial_split).num == sum(iteration.chain_coefficients(frame, kind))


def test_tag_memory_follows_the_longest_chain_not_the_number_of_lengths():
    before = [len(tags) for tags in frames._tag_lists]
    for length in range(1, 301):
        for kind in (SequenceKind.DROP_LAMBDA_PURE, SequenceKind.DROP_RHO_PURE):
            closed_form_slopes(IDENTITY, kind, [2] * length)
    assert [len(tags) for tags in frames._tag_lists] == [max(n, 300) for n in before]


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


def _reference_closed_form(frame, kind, twists):
    """Entry values of a chain, from the two formulas written out per join."""
    initial = kind.initial_split
    peeled, kept = (frame.p, frame.q), (frame.r, frame.s)
    if not initial.splits_rho:
        peeled, kept = kept, peeled
    if not initial.drops:  # after a lift each pair reads (m, ell)
        peeled, kept = peeled[::-1], kept[::-1]
    (a, b), (c, d) = peeled, kept
    mult, sign, out = 1, 1, []
    for n in twists:
        if kind.mixed:
            coeff = 2 * (b + d) * (mult * a + (mult - sign) * c)
        else:
            coeff = 2 * a * (mult * b + sign * d)
        out.append(coeff + Fraction(1, n))
        e = 1 if n % 2 else -1
        mult, sign = 1 + e * mult, e * sign
    return out


@pytest.mark.parametrize("kind", list(SequenceKind), ids=lambda kind: kind.value)
def test_closed_form_matches_the_per_join_formulas(kind):
    for frame in verify.frames_in_box(2):
        for twists in verify.twist_tuples(3, 2):
            slopes = closed_form_slopes(frame, kind, twists)
            assert [slope.value for slope in slopes] == _reference_closed_form(frame, kind, twists)
            assert [slope.coords for slope in slopes] == [
                position_coords(k, kind.initial_split) for k in range(len(twists))
            ]


# Whether the oracle places the old knot's class upper at every join: a drop xor a mixed chain.
OLD_CLASS_UPPER = {
    SequenceKind.DROP_RHO_PURE: True,
    SequenceKind.DROP_RHO_MIXED_TAU: False,
    SequenceKind.DROP_LAMBDA_PURE: True,
    SequenceKind.DROP_LAMBDA_MIXED_TAU: False,
    SequenceKind.LIFT_RHO_PURE: False,
    SequenceKind.LIFT_RHO_MIXED_TAU: True,
    SequenceKind.LIFT_LAMBDA_PURE: False,
    SequenceKind.LIFT_LAMBDA_MIXED_TAU: True,
}


@pytest.mark.parametrize("kind", list(SequenceKind), ids=lambda kind: kind.value)
def test_oracle_places_the_old_class_by_one_rule(kind):
    assert list(OLD_CLASS_UPPER) == list(SequenceKind)
    for frame in verify.frames_in_box(2):
        rho, lam = HomologyClass(frame.p, frame.q), HomologyClass(frame.r, frame.s)
        constituent = rho if kind.initial_split.splits_rho else lam
        accreted = HomologyClass(frame.p + frame.r, frame.q + frame.s) if kind.mixed else constituent
        for twists in [(1, 2, -1), (-2, 3, 2), (2, 2, 1, -3)]:
            _, steps = oracle_slopes(frame, kind, twists, trace=True)
            assert len(steps) == len(twists)
            for step in steps:
                placed = (step.c_prev, accreted) if OLD_CLASS_UPPER[kind] else (accreted, step.c_prev)
                assert (step.upper, step.lower) == placed, (frame, step)
                assert step.linking == step.upper.m * step.lower.ell


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


@pytest.mark.parametrize("steps", [True, 1.0, 2.5], ids=repr)
def test_binary_invariants_refuse_a_join_count_that_is_not_an_int(steps):
    # [0] * True is [0], one bit as if for one join
    with pytest.raises(ValueError, match=r"^join count must be an integer, got .+$"):
        binary_invariants(SequenceKind.DROP_RHO_PURE, steps, 0)
    with pytest.raises(ValueError, match="^a chain has at least its initial splitting$"):
        binary_invariants(SequenceKind.DROP_RHO_PURE, 0, 0)


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


@pytest.mark.parametrize("from_trivial", [1, 0, "no", None], ids=repr)
def test_assemble_refuses_a_from_trivial_that_is_not_a_bool(from_trivial):
    # a truthy 1 or "no" would reduce the lead slope, as `parse_descriptor` refuses to
    with pytest.raises(ValueError, match=r"^from_trivial must be True or False, got .+$"):
        assemble_invariants(IDENTITY, SequenceKind.DROP_RHO_PURE, [2, 3], 0, from_trivial)


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
