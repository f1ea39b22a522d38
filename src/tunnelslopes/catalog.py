"""Append-only JSON-lines catalog of computed invariants.

One line per entry: a descriptor (enough to recompute everything), the
invariants it produced, warning flags, and a schema version.  Deduplication
keys on the canonical serialization of the invariants, so entries whose
invariants differ are never merged.  `dump_line` writes that serialization
and every other JSON line the package prints or stores.
"""

from __future__ import annotations

import json
from pathlib import Path

from .frames import FareyFrame
from .iteration import SequenceKind, TwistSequence, assemble_invariants
from .slopes import TunnelInvariants

SCHEMA_VERSION = 1

_DESCRIPTOR_KEYS = ("frame", "kind", "twists", "splitting_bit", "from_trivial")


def descriptor_dict(
    frame: FareyFrame,
    kind: SequenceKind,
    twists: TwistSequence,
    splitting_bit: int,
    from_trivial: bool,
) -> dict:
    return {
        "frame": frame.text(),
        "kind": kind.value,
        "twists": twists.text(),
        "splitting_bit": splitting_bit,
        "from_trivial": from_trivial,
    }


def parse_descriptor(d: dict, *, bypass: bool = False):
    """Rebuild the computation inputs from a descriptor dict."""
    if not isinstance(d, dict):
        raise ValueError(f"descriptor must be a JSON object, got {type(d).__name__}")
    missing = [key for key in ("frame", "kind", "twists") if key not in d]
    if missing:
        raise ValueError(f"descriptor is missing {missing}")
    unknown = [key for key in d if key not in _DESCRIPTOR_KEYS]
    if unknown:
        raise ValueError(f"descriptor has unknown keys {unknown}")
    for key in ("frame", "kind", "twists"):
        if not isinstance(d[key], str):
            raise ValueError(f"descriptor {key} must be a string, got {d[key]!r}")
    splitting_bit = d.get("splitting_bit", 0)
    # type(...) is int also rejects True and False, which are ints to isinstance
    if type(splitting_bit) is not int or splitting_bit not in (0, 1):
        raise ValueError(f"descriptor splitting_bit must be the integer 0 or 1, got {splitting_bit!r}")
    from_trivial = d.get("from_trivial", False)
    if not isinstance(from_trivial, bool):
        raise ValueError(f"descriptor from_trivial must be true or false, got {from_trivial!r}")
    frame = FareyFrame.parse(d["frame"], bypass=bypass)
    kind = SequenceKind(d["kind"])
    twists = TwistSequence.parse(d["twists"])
    return frame, kind, twists, splitting_bit, from_trivial


def dump_line(obj) -> str:
    """Compact JSON with a fixed key order: the one serialized form of every record."""
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)


def invariants_key(invariants: dict) -> str:
    """Dedup key of an invariants dict, fresh from `TunnelInvariants.to_dict` or read from a line."""
    return dump_line(invariants)


def entry_dict(descriptor: dict, invariants: TunnelInvariants, flags) -> dict:
    return {
        "descriptor": descriptor,
        "invariants": invariants.to_dict(),
        "flags": sorted(flags),
        "schema_version": SCHEMA_VERSION,
    }


def load_entries(path) -> list[dict]:
    """Read a catalog file; a missing file is an empty catalog."""
    path = Path(path)
    if not path.exists():
        return []
    entries = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: not a JSON line: {exc}") from None
        if not isinstance(entry, dict):
            raise ValueError(f"{path}:{lineno}: an entry must be a JSON object, got {type(entry).__name__}")
        if entry.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(
                f"{path}:{lineno}: schema_version {entry.get('schema_version')!r}, "
                f"expected {SCHEMA_VERSION}"
            )
        if not isinstance(entry.get("invariants"), dict):
            raise ValueError(f"{path}:{lineno}: entry has no \"invariants\" object")
        entries.append(entry)
    return entries


def load_keys(path) -> set[str]:
    """Dedup keys of every entry already in the catalog file."""
    return {invariants_key(entry["invariants"]) for entry in load_entries(path)}


def append_lines(path, lines) -> None:
    if not lines:
        return
    with open(path, "a", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")


def append_new(path, known: set[str], keyed_lines: dict[str, str]) -> int:
    """Append, in order, each line whose key is not in `known`; return how many."""
    fresh = [line for key, line in keyed_lines.items() if key not in known]
    append_lines(path, fresh)
    return len(fresh)


def recompute_invariants(entry: dict) -> TunnelInvariants:
    """Recompute an entry's invariants from its descriptor.

    A frame that only passed because of the validation bypass is re-read the
    same way; the entry's flags say whether that applies.
    """
    bypass = "unverified-bypass" in entry.get("flags", [])
    frame, kind, twists, splitting_bit, from_trivial = parse_descriptor(
        entry["descriptor"], bypass=bypass
    )
    return assemble_invariants(frame, kind, twists, splitting_bit, from_trivial)
