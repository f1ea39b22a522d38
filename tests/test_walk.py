"""The prefix walk behind `enumerate`: `verify.chain_walk` against each point computed on its own.

The reference is the per-point route `enumerate` took before the walk:
`assemble_invariants(...).to_dict()` for every point of `chain_points`,
serialized by `dump_line(entry_dict(descriptor_dict(...), ...))`, the first
point of each key giving its line.
"""

import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunnelslopes import SequenceKind, assemble_invariants, iteration, validate_frame
from tunnelslopes.catalog import descriptor_dict, dump_line, entry_dict, invariants_key, load_keys
from tunnelslopes.cli import main
from tunnelslopes.frames import FareyFrame
from tunnelslopes.verify import chain_points, chain_walk, frames_in_box, run_oracle_grid, twist_tuples

FRAME = validate_frame(2, 3, 1, 2)


def _reference(frame, kinds, depth, n_range, bit, from_trivial, known=frozenset()):
    """`enumerate`'s unique lines, point count and appended lines, each point computed on its own."""
    unique = {}
    points = list(chain_points([frame], kinds, depth, n_range))
    for point_frame, kind, twists in points:
        invariants = assemble_invariants(point_frame, kind, twists, bit, from_trivial).to_dict()
        descriptor = descriptor_dict(point_frame, kind, twists, bit, from_trivial)
        unique.setdefault(invariants_key(invariants), dump_line(entry_dict(descriptor, invariants, point_frame.flags)))
    return list(unique.values()), len(points), [line for key, line in unique.items() if key not in known]


def _text(lines) -> str:
    return "".join(line + "\n" for line in lines)


# frame, --kind values (none means all eight), --depth, --n-range, --splitting-bit, --from-trivial, --bypass-validation
CASES = [
    ("2,3,1,2", (), 3, 2, 0, False, False),
    ("2,3,1,2", (), 2, 3, 1, False, False),
    ("1,0,0,1", (), 2, 2, 0, True, False),
    ("-1,0,0,-1", (), 3, 1, 1, True, False),
    ("2,4,1,2", (), 2, 2, 0, False, True),
    ("3,2,1,1", ("lift-lambda-mixed-tau", "drop-rho-pure", "lift-lambda-mixed-tau"), 3, 3, 1, False, False),
    ("1,1,0,1", ("drop-lambda-pure",), 1, 1, 0, False, False),
]


@pytest.mark.parametrize("prefilled", [False, True])
@pytest.mark.parametrize("frame_text, kinds, depth, n_range, bit, from_trivial, bypass", CASES)
def test_enumerate_writes_the_per_point_lines(
    tmp_path, capsys, prefilled, frame_text, kinds, depth, n_range, bit, from_trivial, bypass
):
    path = tmp_path / "catalog.jsonl"
    frame = FareyFrame.parse(frame_text, bypass=bypass)
    kind_list = [SequenceKind(value) for value in dict.fromkeys(kinds)] or list(SequenceKind)
    before = b""
    if prefilled:
        # every third line of this very run, and lines of another frame that keys apart from all of them
        own, _, _ = _reference(frame, kind_list, depth, n_range, bit, from_trivial)
        other, _, _ = _reference(validate_frame(5, 3, 3, 2), [SequenceKind.LIFT_RHO_PURE], 1, 1, 0, False)
        before = _text(other + own[::3]).encode("utf-8")
        path.write_bytes(before)
    lines, count, fresh = _reference(frame, kind_list, depth, n_range, bit, from_trivial, load_keys(path))
    argv = ["enumerate", "--catalog", str(path), f"--frame={frame_text}", "--depth", str(depth),
            "--n-range", str(n_range), "--splitting-bit", str(bit), *[f"--kind={kind}" for kind in kinds]]
    argv += ["--from-trivial"] * from_trivial + ["--bypass-validation"] * bypass
    assert main(argv) == 0
    summary = {"points": count, "unique": len(lines), "appended": len(fresh), "existing": len(lines) - len(fresh)}
    assert capsys.readouterr().out == _text(lines + [dump_line(summary)])
    assert path.read_bytes() == before + _text(fresh).encode("utf-8")
    assert prefilled == (len(fresh) < len(lines))


@settings(derandomize=True, max_examples=60)
@given(
    frame=st.sampled_from(frames_in_box(2)),
    kinds=st.lists(st.sampled_from(list(SequenceKind)), min_size=1, max_size=3, unique=True),
    depth=st.integers(1, 3),
    n_range=st.integers(1, 2),
    bit=st.integers(0, 1),
    trivial=st.booleans(),
)
def test_the_walk_yields_each_points_own_invariants(frame, kinds, depth, n_range, bit, trivial):
    from_trivial = trivial and frame.text() in ("1,0,0,1", "-1,0,0,-1")
    walked = [(f, kind, twists.entries, invariants)
              for f, kind, twists, invariants in chain_walk(frame, kinds, depth, n_range, bit, from_trivial)]
    expected = [(f, kind, twists.entries, assemble_invariants(f, kind, twists, bit, from_trivial).to_dict())
                for f, kind, twists in chain_points([frame], kinds, depth, n_range)]
    assert walked == expected


@pytest.mark.parametrize("max_len, n_bound", [(1, 1), (1, 3), (2, 2), (3, 1), (3, 2), (4, 1)])
def test_the_walk_visits_twist_tuples_in_their_order(max_len, n_bound):
    for kind in SequenceKind:
        visited = [twists.entries for _, _, twists, _ in chain_walk(FRAME, [kind], max_len, n_bound, 0, False)]
        assert visited == list(twist_tuples(max_len, n_bound))


def _enumerated(tmp_path, capsys, name: str) -> str:
    argv = ["enumerate", "--catalog", str(tmp_path / name), "--frame=2,3,1,2", "--depth", "2", "--n-range", "2"]
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("rule", ["join_step", "chain_coefficients"])
def test_a_fault_in_a_shared_rule_reaches_enumerate_and_the_oracle_grid(tmp_path, capsys, monkeypatch, rule):
    # the walk and the closed form read one rule each, so the oracle grid guards the walk too
    original = getattr(iteration, rule)
    faults = {
        "join_step": lambda pair, n: original((pair[0], -pair[1]), n),
        "chain_coefficients": lambda frame, kind: (original(frame, kind)[0], original(frame, kind)[1] + 2),
    }
    clean = _enumerated(tmp_path, capsys, "clean.jsonl")
    assert run_oracle_grid(1, 2, 2).ok
    iteration._cached_tables.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(iteration, rule, faults[rule])
            faulty = _enumerated(tmp_path, capsys, "faulty.jsonl")
            result = run_oracle_grid(1, 2, 2)
    finally:
        iteration._cached_tables.cache_clear()
    assert faulty != clean
    assert result.cases == 6400 and result.failures


class _Pair(list):
    """A (mult, sign) pair a weak reference can follow."""


def test_the_walk_holds_at_most_one_level_of_one_grid(monkeypatch):
    # every prefix the walk keeps holds the pair `join_step` gave it, and nothing else holds that pair
    held = [0]
    original = iteration.join_step

    def let_go():
        held[0] -= 1

    def tracked(pair, n):
        pair = _Pair(original(pair, n))
        held[0] += 1
        weakref.finalize(pair, let_go)
        return pair

    monkeypatch.setattr(iteration, "join_step", tracked)
    kinds = [SequenceKind.DROP_RHO_PURE, SequenceKind.LIFT_LAMBDA_MIXED_TAU]
    seen = [(kind, len(twists), held[0]) for _, kind, twists, _ in chain_walk(FRAME, kinds, 4, 2, 0, False)]
    # the grid's levels have 4, 16, 64 and 256 points, and the last is never kept; the prefix being
    # extended counts too, so at most one level's 64 are held
    assert max(count for _, _, count in seen) == 4**3
    firsts = [count for index, (kind, length, count) in enumerate(seen) if index == 0 or seen[index - 1][0] != kind]
    assert firsts == [0, 0]
    assert len(seen) == 2 * (4 + 16 + 64 + 256)
