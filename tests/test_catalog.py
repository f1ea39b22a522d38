import contextlib
import io
import itertools
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunnelslopes import (
    SequenceKind,
    TwistSequence,
    assemble_invariants,
    semisimple_slopes,
    validate_cf,
    validate_frame,
)
from tunnelslopes import catalog
from tunnelslopes.catalog import (
    SCHEMA_VERSION,
    append_lines,
    dump_line,
    entry_dict,
    invariants_key,
    load_entries,
    recompute_invariants,
)
from tunnelslopes.cli import main
from tunnelslopes.iteration import descriptor_dict, parse_descriptor
from tunnelslopes.verify import frames_in_box

FRAME = validate_frame(2, 3, 1, 2)
KIND = SequenceKind.DROP_RHO_PURE
TWISTS = TwistSequence((2, 1))


def test_descriptor_round_trip():
    d = descriptor_dict(FRAME, KIND, TWISTS, 1, False)
    assert list(d) == ["frame", "kind", "twists", "splitting_bit", "from_trivial"]
    frame, kind, twists, bit, from_trivial = parse_descriptor(d)
    assert (frame, kind, twists.entries, bit, from_trivial) == (FRAME, KIND, (2, 1), 1, False)
    # the reader returns the writer's inputs for every kind, bit and start; it checks no trivial-frame rule
    for inputs in itertools.product([FRAME, validate_frame(1, 0, 0, 1)], SequenceKind, [TWISTS, TwistSequence((-3,))],
                                    (0, 1), (False, True)):
        parsed = parse_descriptor(descriptor_dict(*inputs))
        assert parsed == inputs and type(parsed[3]) is int and type(parsed[4]) is bool


def test_descriptor_optional_fields_default():
    frame, kind, twists, bit, from_trivial = parse_descriptor(
        {"frame": "2,3,1,2", "kind": "drop-rho-pure", "twists": "2,1"}
    )
    assert (bit, from_trivial) == (0, False)
    assert kind is KIND and twists.entries == (2, 1)


def test_descriptor_rejects_bad_shapes():
    with pytest.raises(ValueError, match="missing"):
        parse_descriptor({"frame": "2,3,1,2", "kind": "drop-rho-pure"})
    with pytest.raises(ValueError, match="unknown keys"):
        parse_descriptor(
            {"frame": "2,3,1,2", "kind": "drop-rho-pure", "twists": "2", "extra": 1}
        )
    with pytest.raises(ValueError, match="JSON object"):
        parse_descriptor(["2,3,1,2"])


def test_entry_round_trip_through_file(tmp_path):
    path = tmp_path / "catalog.jsonl"
    assert load_entries(path) == []
    invariants = assemble_invariants(FRAME, KIND, TWISTS, 0, False)
    entry = entry_dict(descriptor_dict(FRAME, KIND, TWISTS, 0, False), invariants.to_dict(), FRAME.flags)
    append_lines(path, [dump_line(entry)])
    loaded = load_entries(path)
    assert loaded == [entry]
    assert loaded[0]["schema_version"] == SCHEMA_VERSION
    assert recompute_invariants(loaded[0]) == invariants


def test_load_rejects_foreign_schema(tmp_path):
    path = tmp_path / "catalog.jsonl"
    append_lines(path, [json.dumps({"schema_version": 99})])
    with pytest.raises(ValueError, match="schema_version"):
        load_entries(path)
    path2 = tmp_path / "broken.jsonl"
    path2.write_text("{not json\n", encoding="utf-8")
    with pytest.raises(ValueError, match="not a JSON line"):
        load_entries(path2)


def test_load_parses_and_words_errors_as_json_loads(tmp_path):
    entry = entry_dict(descriptor_dict(FRAME, KIND, TWISTS, 0, False),
                       assemble_invariants(FRAME, KIND, TWISTS, 0, False).to_dict(), [])
    line = dump_line(entry)
    path = tmp_path / "padded.jsonl"
    path.write_text(f" {line}\n{line}\t\n", encoding="utf-8")
    assert load_entries(path) == [entry, entry]
    for bad in ["\ufeff" + line, line + "x", line + " {}", line[:-1], "nul"]:
        with pytest.raises(ValueError) as expected:
            json.loads(bad)
        path.write_text(bad + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as got:
            load_entries(path)
        assert str(got.value) == f"{path}:1: not a JSON line: {expected.value}"


def test_recompute_honors_bypass_flag():
    entry = {
        "descriptor": {"frame": "2,4,1,2", "kind": "drop-rho-pure", "twists": "2"},
        "flags": ["unverified-bypass"],
        "schema_version": SCHEMA_VERSION,
    }
    recompute_invariants(entry)  # gcd(2,4) != 1 would fail without the bypass
    entry["flags"] = []
    with pytest.raises(ValueError, match="coprime"):
        recompute_invariants(entry)


def test_dedup_key_separates_distinct_invariants():
    a = assemble_invariants(FRAME, KIND, (2, 1), 0, False)
    b = assemble_invariants(FRAME, KIND, (2, 3), 0, False)
    assert invariants_key(a.to_dict()) != invariants_key(b.to_dict())
    assert invariants_key(a.to_dict()) == invariants_key(
        assemble_invariants(FRAME, KIND, (2, 1), 0, False).to_dict()
    )


def test_torn_only_line_is_skipped_then_cut_off(tmp_path, capsys):
    path = tmp_path / "catalog.jsonl"
    path.write_bytes(b'{"descriptor":{"fr')  # the first append of the file, cut short
    assert load_entries(path) == []
    assert capsys.readouterr().err.startswith(f"{path}:1: warning: ")
    invariants = assemble_invariants(FRAME, KIND, TWISTS, 0, False)
    line = dump_line(entry_dict(descriptor_dict(FRAME, KIND, TWISTS, 0, False), invariants.to_dict(), []))
    append_lines(path, [line])
    assert path.read_text(encoding="utf-8") == line + "\n"


# Small ranges, so that equal invariants are drawn often: along different
# routes too, since a 2-bridge fraction and its drop chain out of the trivial
# knot give the same invariant.
small_twists = st.lists(st.integers(-2, 2).filter(lambda n: n != 0), min_size=1, max_size=3)
chain_invariants = st.builds(
    assemble_invariants,
    st.sampled_from(frames_in_box(1)),
    st.sampled_from(list(SequenceKind)),
    small_twists,
    st.integers(0, 1),
)
trivial_invariants = st.builds(
    lambda twists, kind, bit: assemble_invariants(validate_frame(1, 0, 0, 1), kind, twists, bit, True),
    small_twists,
    st.sampled_from([SequenceKind.DROP_RHO_PURE, SequenceKind.LIFT_RHO_PURE]),
    st.integers(0, 1),
)
bridge_invariants = st.integers(1, 3).flatmap(
    lambda n: st.builds(
        lambda signs, turns: semisimple_slopes(validate_cf(signs, turns)),
        st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n),
        st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n),
    )
)
any_invariants = st.one_of(chain_invariants, trivial_invariants, bridge_invariants)


@settings(max_examples=300)
@given(any_invariants, any_invariants)
def test_dedup_key_equal_exactly_when_serializations_are(a, b):
    a_dict, b_dict = a.to_dict(), b.to_dict()
    assert (invariants_key(a_dict) == invariants_key(b_dict)) == (dump_line(a_dict) == dump_line(b_dict))


@settings(max_examples=50)
@given(st.lists(any_invariants, min_size=1, max_size=5))
def test_loaded_line_keys_like_its_fresh_invariants(tmp_path_factory, drawn):
    path = tmp_path_factory.mktemp("catalog") / "catalog.jsonl"
    lines = [dump_line(entry_dict(descriptor_dict(FRAME, KIND, TWISTS, 0, False), inv.to_dict(), [])) for inv in drawn]
    # the last line with its keys sorted, as `jq -S` rewrites them
    lines[-1] = json.dumps(json.loads(lines[-1]), sort_keys=True)
    append_lines(path, lines)
    loaded = [invariants_key(entry["invariants"]) for entry in load_entries(path)]
    assert loaded == load_entries(path, keys=True) == [invariants_key(inv.to_dict()) for inv in drawn]


def test_keys_skip_blank_lines_and_a_torn_tail_as_entries_do(tmp_path, capsys):
    path = tmp_path / "catalog.jsonl"
    entries = [
        entry_dict(descriptor_dict(FRAME, KIND, TwistSequence(tw), 0, False),
                   assemble_invariants(FRAME, KIND, tw, 0, False).to_dict(), [])
        for tw in [(1,), (2, 1)]
    ]
    text = f"\n{dump_line(entries[0])}\n  \n\t\n{json.dumps(entries[1], sort_keys=True)}\n\n"
    path.write_text(text + '{"descriptor":{"fr', encoding="utf-8")  # the last append, cut short
    keys = [invariants_key(entry["invariants"]) for entry in load_entries(path)]
    warning = capsys.readouterr().err
    assert warning == f"{path}:7: warning: skipping a last line cut short by an interrupted append\n"
    assert keys == [invariants_key(entry["invariants"]) for entry in entries]
    assert load_entries(path, keys=True) == keys
    assert capsys.readouterr().err == warning


def test_loading_keys_serializes_nothing(tmp_path, monkeypatch):
    path = tmp_path / "catalog.jsonl"
    lines = [
        dump_line(entry_dict(descriptor_dict(FRAME, KIND, TwistSequence(tw), 0, False),
                             assemble_invariants(FRAME, KIND, tw, 0, False).to_dict(), []))
        for tw in [(1,), (2,), (2, 1)]
    ]
    append_lines(path, lines)

    def refuse(*args, **kwargs):
        raise AssertionError("a dedup key must not be built by JSON encoding")

    monkeypatch.setattr(catalog, "dump_line", refuse)
    monkeypatch.setattr(json, "dumps", refuse)
    keys = set(load_entries(path, keys=True))
    assert len(keys) == 3


# two frames whose chains have equal invariants
TWIN_FRAMES = [validate_frame(1, 0, 0, 1), validate_frame(-1, 0, 0, -1)]
# on one frame, the length-1 chains of one initial move's pure and mixed kinds share a key
SAME_KEY = [(KIND, TwistSequence((2,))), (SequenceKind.DROP_RHO_MIXED_TAU, TwistSequence((2,)))]


def _chains(frame, points, splitting_bit=0):
    """`add_chains`' input as `iteration.chain_walk` yields it on `frame`: each (kind, twists) as its two texts."""
    return [(kind, twists.text(), dump_line(assemble_invariants(frame, kind, twists, splitting_bit).to_dict()))
            for kind, twists in points]


def test_dump_line_writes_what_json_dumps_writes(tmp_path):
    # the kept encoder against a fresh `json.dumps` per record: catalog lines, `iterate --trace`
    # records, and `split` records, whose coordinate tags are not ASCII; then a top-level list and
    # string, and a record holding None, True and a tuple.  A refused record comes first, so every
    # record is written after a failed call of the kept encoder.  The refused one is written again
    # with its Fraction removed, which an encoder that kept the failed call's state would refuse.
    refused = {"rest": ["1/2", Fraction(1, 2)]}
    with pytest.raises(TypeError, match="Fraction is not JSON serializable"):
        json.dumps(refused)
    with pytest.raises(TypeError, match="Fraction is not JSON serializable"):
        dump_line(refused)
    refused["rest"].pop()
    path = tmp_path / "catalog.jsonl"
    _, enumerated, _ = _main("enumerate", "--catalog", str(path), "--frame", "2,3,1,2", "--depth", "2",
                             "--n-range", "1")
    _, traced, _ = _main("iterate", "--frame", "2,3,1,2", "--kind", "drop-rho-mixed-tau", "--twists", "2,3,-1",
                         "--trace", "--verify")
    _, split, _ = _main("split", "--frame", "2,3,1,2", "--kind", "lift-rho", "--n", "2")
    records = [json.loads(line) for line in (*path.read_text(encoding="utf-8").splitlines(), *traced.splitlines(),
                                             *enumerated.splitlines(), *split.splitlines())]
    assert len(records) > 30 and any("k" in record for record in records) and "λ" in split
    records += [refused, [1, "τ", [], {}], 'a "quoted"\nλ', {"none": None, "yes": True, "pair": (1, -2), "no": False}]
    for record in records:
        assert dump_line(record) == json.dumps(record, separators=(",", ":"), ensure_ascii=False)


def test_dump_line_refuses_a_list_that_holds_itself():
    # the kept encoder has no circular-reference check, so the refusal is Python's recursion limit,
    # where `json.dumps` raises ValueError("Circular reference detected"); no package record holds itself
    looped = [1]
    looped.append(looped)
    with pytest.raises(ValueError, match="Circular reference"):
        json.dumps(looped)
    written = None
    with pytest.raises(RecursionError):
        written = dump_line(looped)
    assert written is None
    assert dump_line([1, [2]]) == "[1,[2]]"


def test_add_chains_keeps_the_first_point_of_each_key(tmp_path):
    # a twin frame's later call appends nothing, and returns its own line
    for n, frames in enumerate([TWIN_FRAMES, TWIN_FRAMES[::-1]]):
        path = tmp_path / f"catalog{n}.jsonl"
        runs = [catalog.add_chains(path, frame, iter(_chains(frame, SAME_KEY[:1])), 0, False) for frame in frames]
        assert [(count, appended) for _, count, appended in runs] == [(1, 1), (1, 0)]
        (first,), (twin,) = [lines for lines, _, _ in runs]
        assert [json.loads(line)["descriptor"]["frame"] for line in (first, twin)] == [frame.text() for frame in frames]
        assert path.read_text(encoding="utf-8") == first + "\n"
    # within one call the first point of a key gives its line
    for n, points in enumerate([SAME_KEY, SAME_KEY[::-1]]):
        path = tmp_path / f"same{n}.jsonl"
        lines, count, appended = catalog.add_chains(path, FRAME, iter(_chains(FRAME, points)), 0, False)
        assert (count, appended) == (2, 1)
        assert [json.loads(line)["descriptor"]["kind"] for line in lines] == [points[0][0].value]
        assert path.read_text(encoding="utf-8") == lines[0] + "\n"


def test_add_chains_appends_only_keys_the_file_lacks(tmp_path):
    path = tmp_path / "catalog.jsonl"
    old, new = (KIND, TwistSequence((1,))), (KIND, TwistSequence((2, 1)))
    (stored,), _, _ = catalog.add_chains(path, FRAME, _chains(FRAME, [old], 1), 1, False)
    lines, count, appended = catalog.add_chains(path, FRAME, _chains(FRAME, [new, old], 1), 1, False)
    assert (count, appended) == (2, 1)
    assert lines[1] == stored
    assert path.read_text(encoding="utf-8").splitlines() == [stored, lines[0]]
    assert catalog.add_chains(path, FRAME, _chains(FRAME, [old, new], 1), 1, False) == ([stored, lines[0]], 2, 0)


def _reference_lines(frame, points, splitting_bit):
    """The lines `add_chains` writes, each the first point of its key as one whole `dump_line` entry."""
    unique = {}
    for kind, twists in points:
        invariants = assemble_invariants(frame, kind, twists, splitting_bit).to_dict()
        descriptor = descriptor_dict(frame, kind, twists, splitting_bit, False)
        unique.setdefault(dump_line(invariants), dump_line(entry_dict(descriptor, invariants, frame.flags)))
    return list(unique.values())


def test_add_chains_builds_one_entry_per_run_unique_key(tmp_path):
    path = tmp_path / "catalog.jsonl"
    first, twin = TWIN_FRAMES
    points = SAME_KEY[::-1] + [(KIND, TwistSequence((1,)))] + SAME_KEY
    lines, count, appended = catalog.add_chains(path, first, iter(_chains(first, points)), 0, False)
    assert (count, appended) == (5, 2)
    assert lines == _reference_lines(first, points, 0)
    # the first point of each key wins: the pure chain that keys as the mixed one before it is never written
    assert [json.loads(line)["descriptor"]["kind"] for line in lines] == [SAME_KEY[1][0].value, KIND.value]
    # the twin frame's run keys as the first's: the same lines with its own descriptor, none appended
    twin_run = catalog.add_chains(path, twin, iter(_chains(twin, points)), 0, False)
    assert twin_run == (_reference_lines(twin, points, 0), 5, 0)
    assert path.read_text(encoding="utf-8") == "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("splitting_bit", [0, 1])
def test_add_chains_writes_each_frame_and_kind_into_its_own_lines(tmp_path, splitting_bit):
    # one call per frame into one catalog; within a call consecutive lines switch kind, then switch back.  The frames
    # differ in text, length and flags, and the second is FRAME bypassed, equal to it and told apart by its flags alone
    frames = [FRAME, validate_frame(2, 3, 1, 2, bypass=True), validate_frame(-13, -8, -5, -3)]
    kinds = [KIND] * 2 + [SequenceKind.LIFT_LAMBDA_MIXED_TAU] * 2 + [KIND]
    points = [(kind, TwistSequence((n + 1,) + (-2,) * (n % 3))) for n, kind in enumerate(kinds)]
    path = tmp_path / "catalog.jsonl"
    written = []
    for frame in frames:
        chains = _chains(frame, points, splitting_bit)
        lines, count, appended = catalog.add_chains(path, frame, iter(chains), splitting_bit, False)
        # the bypassed twin keys as FRAME does, so it appends nothing, yet its lines carry its own flag
        assert count == len(lines) == len(points) and appended == (0 if frame is frames[1] else len(points))
        assert lines == _reference_lines(frame, points, splitting_bit)
        for line, (kind, tw, _) in zip(lines, chains):
            entry = json.loads(line)
            assert entry["descriptor"]["frame"] == frame.text() and entry["descriptor"]["kind"] == kind._value_
            assert entry["descriptor"]["twists"] == tw and entry["flags"] == sorted(frame.flags)
        written += lines[:appended]
    assert "unverified-bypass" in frames[1].flags
    assert path.read_text(encoding="utf-8") == "".join(line + "\n" for line in written)


def test_add_chains_reads_the_catalog_before_the_first_point(tmp_path):
    path = tmp_path / "catalog.jsonl"
    path.write_text('{"schema_version":1}\nnot json\n', encoding="utf-8")
    advanced = []

    def points():
        advanced.append(True)
        yield from _chains(FRAME, SAME_KEY)

    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: "):
        catalog.add_chains(path, FRAME, points(), 0, False)
    assert advanced == []


# Fuzz: one mutation of a line `enumerate` wrote, or of its descriptor
# object.  Structural mutations work on the parsed line with each object
# kept as its (key, value) pairs, so a key can repeat and keep its place.


class _Pairs(list):
    """A JSON object as its (key, value) pairs."""


def _encode(value) -> str:
    """`dump_line`'s compact text, with repeated keys written as they stand."""
    if isinstance(value, _Pairs):
        return "{" + ",".join(f"{dump_line(key)}:{_encode(item)}" for key, item in value) + "}"
    if isinstance(value, list):
        return "[" + ",".join(map(_encode, value)) + "]"
    return dump_line(value)


def _slots(value):
    """(container, index, item) for every item inside `value`, outermost first."""
    items = [pair[1] for pair in value] if isinstance(value, _Pairs) else value if isinstance(value, list) else []
    for index, item in enumerate(items):
        yield value, index, item
        yield from _slots(item)


def _not_utf8(data: bytes) -> bool:
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return True
    return False


OTHER_VALUES = [None, True, False, 0, 1, -7, 1.5, "", "x", "1/2", [], [0], {}, {"a": 1}]
# mutations whose line means exactly what the original means
NO_OPS = ("reorder", "duplicate")


@st.composite
def mutants(draw, text: str):
    """(mutation name, mutated bytes) for one mutation of the JSON text."""
    data = text.encode("utf-8")
    how = draw(st.sampled_from(["cut", "flip", "non-utf8", "retype", "drop", "duplicate", "reorder"]))
    if how == "cut":
        return how, data[: draw(st.integers(0, len(data) - 1))]
    if how == "flip":
        at = draw(st.integers(0, len(data) - 1))
        byte = draw(st.integers(0, 255).filter(lambda b: b != data[at]))
        return how, data[:at] + bytes([byte]) + data[at + 1:]
    if how == "non-utf8":
        at = draw(st.integers(0, len(data)))
        return how, data[:at] + draw(st.binary(min_size=1, max_size=4).filter(_not_utf8)) + data[at:]
    tree = json.loads(text, object_pairs_hook=_Pairs)
    assert _encode(tree) == text
    if how == "retype":
        container, index, old = draw(st.sampled_from(list(_slots(tree))))
        old_type = dict if isinstance(old, _Pairs) else type(old)
        value = draw(st.sampled_from(OTHER_VALUES).filter(lambda value: type(value) is not old_type))
        new = json.loads(json.dumps(value), object_pairs_hook=_Pairs)
        container[index] = (container[index][0], new) if isinstance(container, _Pairs) else new
    else:
        objects = [tree] + [item for _, _, item in _slots(tree) if isinstance(item, _Pairs) and item]
        obj = draw(st.sampled_from(objects))
        if how == "drop":
            del obj[draw(st.integers(0, len(obj) - 1))]
        elif how == "duplicate":
            obj.insert(draw(st.integers(0, len(obj))), obj[draw(st.integers(0, len(obj) - 1))])
        else:
            obj[:] = draw(st.permutations(list(obj)))
    return how, _encode(tree).encode("utf-8")


ENUMERATE_GRID = ["--frame", "2,3,1,2", "--kind", "drop-rho-pure", "--depth", "1", "--n-range", "1"]


def _main(*argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process call; a usage error's exit too.

    Captured in memory rather than by `capsys`, whose streams hypothesis
    would share across the examples of one test.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """The two lines `enumerate` writes for ENUMERATE_GRID, and a catalog path to fuzz at."""
    directory = tmp_path_factory.mktemp("fuzz")
    code, _, _ = _main("enumerate", "--catalog", str(directory / "written.jsonl"), *ENUMERATE_GRID)
    lines = (directory / "written.jsonl").read_text(encoding="utf-8").splitlines()
    assert code == 0 and len(lines) == 2
    return lines, directory / "catalog.jsonl"


@settings(derandomize=True, max_examples=250, deadline=None)
@given(data=st.data())
def test_enumerate_on_a_mutated_line_exits_cleanly(written, data):
    lines, path = written
    source = data.draw(st.integers(0, 1))
    how, mutant = data.draw(mutants(lines[source]))
    mutant_first, final_newline = data.draw(st.booleans()), data.draw(st.booleans())
    # the other line, unmutated, so that every key of the grid is in the file
    good = lines[1 - source].encode("utf-8")
    rows = [mutant, good] if mutant_first else [good, mutant]
    path.write_bytes(b"\n".join(rows) + (b"\n" if final_newline else b""))
    first = 1 if mutant_first else 2
    mutant_linenos = range(first, first + mutant.count(b"\n") + 1)

    code, out, err = _main("enumerate", "--catalog", str(path), *ENUMERATE_GRID)
    assert code in (0, 3), err
    if code == 3:
        match = re.match(rf"error: {re.escape(str(path))}:([0-9]+): ", err)
        assert match and err.count("\n") == 1 and err.endswith("\n"), err
        assert int(match.group(1)) in mutant_linenos, err
    else:
        assert all(re.match(rf"{re.escape(str(path))}:[0-9]+: warning: ", line) for line in err.splitlines()), err
        assert json.loads(out.splitlines()[-1])["points"] == 2
    if how in NO_OPS:
        assert (code, err) == (0, "")
        assert json.loads(out.splitlines()[-1])["appended"] == 0


@settings(derandomize=True, max_examples=250, deadline=None)
@given(data=st.data())
def test_compare_on_a_mutated_descriptor_exits_cleanly(written, data):
    lines, _ = written
    descriptor = dump_line(json.loads(data.draw(st.sampled_from(lines)))["descriptor"])
    how, mutant = data.draw(mutants(descriptor))
    # as a POSIX argv carries bytes that are not UTF-8
    left = mutant.decode("utf-8", "surrogateescape")
    code, out, err = _main("compare", f"--left={left}", "--right", descriptor)
    assert code in (0, 3), err
    if code == 3:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
        assert out == ""
    else:
        assert err == "" and out.count("\n") == 1
        record = json.loads(out)
        if how in NO_OPS:
            assert record["equal"] is True


# Lines `enumerate` writes in every form a field takes: both splitting bits,
# a `[a/b]` first slope, the bypass flag, several flags and none, negative
# slopes, and an empty, a one-slope and a two-slope `rest`.
VARIED_GRIDS = [
    ["--frame", "2,3,1,2", "--kind", "drop-rho-pure", "--depth", "3", "--n-range", "1", "--splitting-bit", "1"],
    ["--frame", "1,0,0,1", "--kind", "drop-rho-pure", "--depth", "2", "--n-range", "1", "--from-trivial"],
    ["--frame", "2,4,1,2", "--kind", "drop-rho-pure", "--depth", "1", "--n-range", "1", "--bypass-validation"],
    ["--frame=-1,0,0,-1", "--kind", "lift-rho-pure", "--depth", "2", "--n-range", "1"],
]


@pytest.fixture(scope="module")
def varied(tmp_path_factory):
    """A catalog `enumerate` wrote over VARIED_GRIDS, and its lines."""
    path = tmp_path_factory.mktemp("varied") / "catalog.jsonl"
    for grid in VARIED_GRIDS:
        assert _main("enumerate", "--catalog", str(path), *grid)[0] == 0
    return path, path.read_text(encoding="utf-8").splitlines()


def test_every_written_line_loads_without_json(varied, monkeypatch):
    path, lines = varied
    parsed = [json.loads(line) for line in lines]
    descriptors = [entry["descriptor"] for entry in parsed]
    invariants = [entry["invariants"] for entry in parsed]
    assert {d["splitting_bit"] for d in descriptors} == {0, 1}
    assert {d["from_trivial"] for d in descriptors} == {False, True}
    assert any(i["first"].startswith("[") for i in invariants)
    assert any(text.startswith("-") for i in invariants for text in [i["first"], *i["rest"]])
    assert {len(i["rest"]) for i in invariants} == {0, 1, 2}
    assert {len(entry["flags"]) for entry in parsed} == {0, 1, 2}
    assert any("unverified-bypass" in entry["flags"] for entry in parsed)

    def refuse(*args, **kwargs):
        raise AssertionError("a line `enumerate` wrote was read through json")

    with monkeypatch.context() as patched:
        patched.setattr(json, "loads", refuse)
        patched.setattr(json, "JSONDecoder", refuse)
        patched.setattr(catalog, "_json_entry", refuse)
        assert load_entries(path, keys=True) == [invariants_key(i) for i in invariants]
    loaded = load_entries(path)
    assert loaded == parsed
    # equal dicts may still differ in type, as 1 == True; the serialization does not
    assert [dump_line(entry) for entry in loaded] == lines


def test_entries_never_consult_the_pattern(varied, monkeypatch):
    path, lines = varied

    def refuse(line):
        raise AssertionError("an entry was read through the canonical pattern")

    monkeypatch.setattr(catalog, "_canonical", refuse)
    assert load_entries(path) == [json.loads(line) for line in lines]


def _assert_read_as_json_reads(path, line: str) -> None:
    """`line` matches the pattern only if `json` reads it, and then `load_entries` reads it alike.

    Its key load gives the key of what `json` reads, or `json`'s error.
    """
    match = re.compile(catalog._CANONICAL).fullmatch(line)
    try:
        expected = catalog._json_entry(line, f"{path}:1")
    except ValueError as exc:
        assert match is None, line
        expected, error = None, str(exc)
    if "\n" in line or not line.strip():
        return  # a file of this line holds other lines, or none
    path.write_text(line + "\n", encoding="utf-8")
    if expected is None:
        with pytest.raises(ValueError) as got:
            set(load_entries(path, keys=True))
        assert str(got.value) == error
        return
    assert set(load_entries(path, keys=True)) == {invariants_key(expected["invariants"])}
    if match:
        assert dump_line(expected) == line


CANONICAL_LINE = (
    '{"descriptor":{"frame":"2,3,1,2","kind":"drop-rho-pure","twists":"1,-1","splitting_bit":1,'
    '"from_trivial":false},"invariants":{"first":"-5/3","rest":["7/12"],"binary":[1,0]},'
    '"flags":["degenerate-frame"],"schema_version":1}'
)


@pytest.mark.parametrize(
    "old, new, matches",
    [
        ("", "", True),
        ('"degenerate-frame"', '"dégénéré"', True),
        ('"degenerate-frame"', '"degenerate\x01frame"', False),  # a raw control character, which JSON refuses
        ('"degenerate-frame"', '"degenerate\\u002dframe"', False),  # an escape
        ('"splitting_bit":1', '"splitting_bit":2', False),
        ('"splitting_bit":1', '"splitting_bit":true', False),
        ('"splitting_bit":1', '"splitting_bit":1.0', False),
        ('"binary":[1,0]', '"binary":[1,2]', False),
        ('"binary":[1,0]', '"binary":[1, 0]', False),
        ('"rest":["7/12"]', '"rest":["7/-12"]', False),
        ('"rest":["7/12"]', '"rest":["٧/12"]', False),  # a digit outside ASCII
        ('"schema_version":1', '"schema_version":01', False),
    ],
)
def test_the_pattern_reads_edited_lines_as_json_does(tmp_path, old, new, matches):
    assert old in CANONICAL_LINE
    line = CANONICAL_LINE.replace(old, new)
    assert (re.compile(catalog._CANONICAL).fullmatch(line) is not None) == matches
    _assert_read_as_json_reads(tmp_path / "catalog.jsonl", line)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(data=st.data())
def test_the_pattern_reads_mutated_lines_as_json_does(varied, data):
    path, lines = varied
    _, mutant = data.draw(mutants(data.draw(st.sampled_from(lines))))
    try:
        line = mutant.decode("utf-8")
    except UnicodeDecodeError:
        return  # `load_entries` refuses such a file before it reads a line
    _assert_read_as_json_reads(path.with_name("mutant.jsonl"), line)
