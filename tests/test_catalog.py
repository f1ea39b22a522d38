import json

import pytest

from tunnelslopes import SequenceKind, TwistSequence, assemble_invariants, validate_frame
from tunnelslopes.catalog import (
    SCHEMA_VERSION,
    append_lines,
    descriptor_dict,
    dump_line,
    entry_dict,
    invariants_key,
    load_entries,
    parse_descriptor,
    recompute_invariants,
)

FRAME = validate_frame(2, 3, 1, 2)
KIND = SequenceKind.DROP_RHO_PURE
TWISTS = TwistSequence((2, 1))


def test_descriptor_round_trip():
    d = descriptor_dict(FRAME, KIND, TWISTS, 1, False)
    assert list(d) == ["frame", "kind", "twists", "splitting_bit", "from_trivial"]
    frame, kind, twists, bit, from_trivial = parse_descriptor(d)
    assert (frame, kind, twists.entries, bit, from_trivial) == (FRAME, KIND, (2, 1), 1, False)


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
