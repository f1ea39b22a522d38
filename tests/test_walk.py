"""The prefix walk behind `enumerate`: `iteration.chain_walk` against each point computed on its own.

The reference is the per-point route `enumerate` took before the walk:
`assemble_invariants(...).to_dict()` for every point of `chain_points`,
serialized by `dump_line(entry_dict(descriptor_dict(...), ...))`, the first
point of each key giving its line.
"""

import hashlib
import json
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunnelslopes import SequenceKind, assemble_invariants, iteration, validate_frame
from tunnelslopes.catalog import descriptor_dict, dump_line, entry_dict, invariants_key, load_entries
from tunnelslopes.cli import main
from tunnelslopes.frames import FareyFrame
from tunnelslopes.iteration import chain_walk
from tunnelslopes.verify import chain_points, frames_in_box, run_oracle_grid, twist_tuples

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


def _assert_same_items(got, want, what: str) -> None:
    """`got == want` for two sequences, failing with the first differing item and both lengths.

    Never a `==` of the two under pytest's assertion rewriting: its diff of long texts or lists that differ in a
    few places runs for minutes, and on CI for lists too.
    """
    if got != want:
        at = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
        pytest.fail(f"{what} {at + 1} differs: got {got[at:at + 1]}, want {want[at:at + 1]}; "
                    f"{len(got)} got, {len(want)} wanted")


# frame, --kind values (none means all eight), --depth, --n-range, --splitting-bit, --from-trivial, --bypass-validation
CASES = [
    ("2,3,1,2", (), 3, 2, 0, False, False),
    ("2,3,1,2", (), 2, 3, 1, False, False),
    ("1,0,0,1", (), 2, 2, 0, True, False),
    ("-1,0,0,-1", (), 3, 1, 1, True, False),
    ("2,4,1,2", (), 2, 2, 0, False, True),
    ("3,2,1,1", ("lift-lambda-mixed-tau", "drop-rho-pure", "lift-lambda-mixed-tau"), 3, 3, 1, False, False),
    ("1,1,0,1", ("drop-lambda-pure",), 1, 1, 0, False, False),
    # an even n flips the sign, so (mult, sign) pairs, and so later slope texts, recur from level to level
    ("2,3,1,2", (), 5, 2, 0, False, False),
    # on the identity frame drop-rho-pure has A = 0: every level, the lead's too, has the same integer part
    ("1,0,0,1", ("drop-rho-pure", "lift-lambda-mixed-tau"), 7, 1, 1, True, False),
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
    lines, count, fresh = _reference(frame, kind_list, depth, n_range, bit, from_trivial, set(load_entries(path, keys=True)))
    argv = ["enumerate", "--catalog", str(path), f"--frame={frame_text}", "--depth", str(depth),
            "--n-range", str(n_range), "--splitting-bit", str(bit), *[f"--kind={kind}" for kind in kinds]]
    argv += ["--from-trivial"] * from_trivial + ["--bypass-validation"] * bypass
    assert main(argv) == 0
    summary = {"points": count, "unique": len(lines), "appended": len(fresh), "existing": len(lines) - len(fresh)}
    # kept line ends: equal line lists are equal texts
    stdout = capsys.readouterr().out.splitlines(keepends=True)
    _assert_same_items(stdout, _text(lines + [dump_line(summary)]).splitlines(keepends=True), "stdout line")
    catalog = path.read_bytes().splitlines(keepends=True)
    _assert_same_items(catalog, (before + _text(fresh).encode("utf-8")).splitlines(keepends=True), "catalog line")
    assert prefilled == (len(fresh) < len(lines))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# SHA-256 of the first run's stdout, of the catalog it wrote and of the rerun's stdout, recorded from the per-point
# serialization before `chain_walk` grew each point's texts from its prefix's.  Depth 4 writes a second later
# slope, and so its comma, which no golden case reaches.
DEEP_RUNS = [
    (["--frame", "2,3,1,2", "--depth", "4", "--n-range", "2"],
     "b893de2b1e9ced5fb4c22fdaca9a0dee232ede9c1823dba3197fdf6400a87a9d",
     "21c3a8df8cf1bdca7897386071dae9911e7b684f3b85bc6132eeb8b60ef798e4",
     "9d6c9e8bcc6ce603cd47706ba18d9b4795db961bf017fed059b145792310e4b4", 2720, 2690),
    (["--frame", "1,0,0,1", "--from-trivial", "--splitting-bit", "1", "--depth", "4", "--n-range", "2"],
     "3d695fa5e29feebe09c49c6e22a46e4792f808bd06963ec73f1ebf6e9b2542a0",
     "198f96ae366ef74c7678bc35f09bfcd3df25f3ff541ec51794cd2957ba7d6c2e",
     "70d84e4dd389698a1633bddb25b75a74b23dfb5b6af71d56a2c922e4c535b8c1", 2720, 838),
    (["--frame", "2,4,1,2", "--bypass-validation", "--depth", "3", "--n-range", "2"],
     "ab6a747579a709eb32cbec324b0735b6047a8045ab1e4aa637dce5dc7196d85e",
     "5ad0f7fb4392fc1c4a53c76a938df112e9d352fcd8987e208ddd08a4f0460e54",
     "0ebe3bffd0174476ea454ffac4e7ee7e8119e57c2c2265afd97c618b15edf81e", 672, 328),
]


@pytest.mark.parametrize("args, stdout_digest, catalog_digest, rerun_digest, points, unique", DEEP_RUNS,
                         ids=["all-kinds", "from-trivial", "bypass"])
def test_deeper_enumerate_runs_keep_their_bytes(
    tmp_path, capsys, args, stdout_digest, catalog_digest, rerun_digest, points, unique
):
    path = tmp_path / "catalog.jsonl"
    runs = []
    for _ in range(2):
        assert main(["enumerate", "--catalog", str(path), *args]) == 0
        runs.append((capsys.readouterr().out, path.read_bytes()))
    (first, written), (rerun, reread) = runs
    summaries = [json.loads(out.splitlines()[-1]) for out, _ in runs]
    assert summaries == [{"points": points, "unique": unique, "appended": appended, "existing": unique - appended}
                         for appended in (unique, 0)]
    assert reread == written  # the rerun appends nothing
    assert [_sha256(first.encode("utf-8")), _sha256(written), _sha256(rerun.encode("utf-8"))] == [
        stdout_digest, catalog_digest, rerun_digest]


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
    # both texts byte for byte, against a fresh sequence's text and a fresh invariants dict's `dump_line`
    walked = list(chain_walk(frame, kinds, depth, n_range, bit, from_trivial))
    expected = [(kind, twists.text(), dump_line(assemble_invariants(frame, kind, twists, bit, from_trivial).to_dict()))
                for _, kind, twists in chain_points([frame], kinds, depth, n_range)]
    _assert_same_items(walked, expected, "point")


@pytest.mark.parametrize("max_len, n_bound", [(1, 1), (1, 3), (2, 2), (3, 1), (3, 2), (4, 1)])
def test_the_walk_visits_twist_tuples_in_their_order(max_len, n_bound):
    for kind in SequenceKind:
        walked = chain_walk(FRAME, [kind], max_len, n_bound, 0, False)
        visited = [tuple(map(int, twists.split(","))) for _, twists, _ in walked]
        assert visited == list(twist_tuples(max_len, n_bound))


_EMPTY = "^the enumeration grid is empty; widen its bounds$"
_CAP = f"^the enumeration grid has more than {iteration.GRID_CAP:,} points, the cap; narrow its bounds$"

# chain_walk's arguments and its refusal; an empty grid is refused before the cap, and both before the frame
REFUSED_WALKS = [
    ((FRAME, SequenceKind, 0, 1, 0, False), _EMPTY),
    ((FRAME, [], 10**9, 1, 0, False), _EMPTY),
    ((FRAME, SequenceKind, 0, 1, 0, True), _EMPTY),
    ((FRAME, [SequenceKind.DROP_RHO_PURE], 10**9, 1, 0, False), _CAP),
    ((FRAME, SequenceKind, 40, 1, 0, True), _CAP),
    ((FRAME, SequenceKind, 2, 2, 0, True), "^a chain out of the trivial knot needs the identity frame, up to sign$"),
    ((validate_frame(1, 0, 0, 1), SequenceKind, 2, 2, 0, 1), "^from_trivial must be True or False, got 1$"),
]


@pytest.mark.parametrize("args, message", REFUSED_WALKS, ids=["depth-0", "no-kind", "depth-0-trivial", "past-cap",
                                                            "past-cap-trivial", "trivial-frame", "trivial-not-bool"])
def test_the_walk_refuses_its_grid_when_called(monkeypatch, args, message):
    # the call itself raises, with no point asked for, as the verify runners refuse theirs
    def refuse(*args):
        raise AssertionError("a refused walk reached prefix_walk")

    monkeypatch.setattr(iteration, "prefix_walk", refuse)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        chain_walk(*args)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("kind", list(SequenceKind))
def test_the_walk_builds_each_later_slope_text_once(monkeypatch, kind):
    # a later slope's text rests on its integer part c and its n alone; every lead is built on its own
    later = set()
    coefficients = iteration.chain_coefficients(FRAME, kind)
    for twists in twist_tuples(4, 2):
        pair = (1, 1)
        for n in twists[:-1]:
            pair = iteration.join_step(pair, n)
        if len(twists) > 1:
            later.add((iteration._readout(coefficients, pair), twists[-1]))
    calls = [0]
    original = iteration.chain_slope

    def counted(c, n, coords):
        calls[0] += 1
        return original(c, n, coords)

    monkeypatch.setattr(iteration, "chain_slope", counted)
    points = sum(1 for _ in chain_walk(FRAME, [kind], 4, 2, 0, False))
    assert points == 4 + 16 + 64 + 256
    assert calls[0] == 4 + len(later)
    assert 36 <= calls[0] <= 44


def _enumerated(tmp_path, capsys, name: str) -> str:
    argv = ["enumerate", "--catalog", str(tmp_path / name), "--frame=2,3,1,2", "--depth", "2", "--n-range", "2"]
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("rule", ["join_step", "chain_coefficients", "_readout"])
def test_a_fault_in_a_shared_rule_reaches_enumerate_and_the_oracle_grid(tmp_path, capsys, monkeypatch, rule):
    # the walk and the closed form read one rule each, so the oracle grid guards the walk too
    original = getattr(iteration, rule)
    faults = {
        "join_step": lambda pair, n: original((pair[0], -pair[1]), n),
        "chain_coefficients": lambda frame, kind: (original(frame, kind)[0], original(frame, kind)[1] + 2),
        "_readout": lambda coefficients, pair: original(coefficients, pair) + 2,
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


def test_an_oracle_join_fault_reaches_the_grid_at_every_worker_count_but_not_enumerate(tmp_path, capsys, monkeypatch):
    original = iteration._oracle_join

    def faulty(fixed, prev, n):
        upper, lower, link, after = original(fixed, prev, n)
        return upper, lower, link + (n == -2), after

    clean = _enumerated(tmp_path, capsys, "clean.jsonl")
    # patched before the pool forks, so every worker folds it
    monkeypatch.setattr(iteration, "_oracle_join", faulty)
    serial = run_oracle_grid(1, 2, 2)
    assert run_oracle_grid(1, 2, 2, workers=2) == serial
    # exactly the points with a -2 among their twists fail, in grid order; `enumerate` reads no oracle
    frames = frames_in_box(1)
    expected = [(f.text(), kind.value, twists.text()) for f, kind, twists in chain_points(frames, SequenceKind, 2, 2)
                if -2 in twists.entries]
    assert serial.cases == 6400
    assert [(failure["frame"], failure["kind"], failure["twists"]) for failure in serial.failures] == expected
    assert _enumerated(tmp_path, capsys, "faulty.jsonl") == clean


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
    seen = [(kind, twists.count(",") + 1, held[0]) for kind, twists, _ in chain_walk(FRAME, kinds, 4, 2, 0, False)]
    # the grid's levels have 4, 16, 64 and 256 points, and the last is never kept; the prefix being
    # extended counts too, so at most one level's 64 are held
    assert max(count for _, _, count in seen) == 4**3
    firsts = [count for index, (kind, length, count) in enumerate(seen) if index == 0 or seen[index - 1][0] != kind]
    assert firsts == [0, 0]
    assert len(seen) == 2 * (4 + 16 + 64 + 256)
