"""Append-only JSON-lines catalog of computed invariants.

One line per entry: a descriptor (enough to recompute everything), the
invariants it produced, warning flags, and a schema version.  Deduplication
keys on the invariant values joined into one compact string, equal exactly
when their canonical serializations are equal, so entries whose invariants
differ are never merged.  `dump_line` writes that serialization and every
other JSON line the package prints or stores.
"""

from __future__ import annotations

import json
import os
import re
import sys

from .frames import FareyFrame
from .iteration import SequenceKind, TwistSequence, assemble_invariants
from .slopes import TunnelInvariants

SCHEMA_VERSION = 1

_DESCRIPTOR_KEYS = ("frame", "kind", "twists", "splitting_bit", "from_trivial")
_INVARIANT_KEYS = frozenset(("first", "rest", "binary"))
# Shapes of loaded slope texts, in ASCII digits: none holds the "," or "|" that `invariants_key` joins with
_SLOPE_TEXT = r"-?[0-9]+/[0-9]+"
_FIRST_TEXT = rf"{_SLOPE_TEXT}|\[[0-9]+/[0-9]+\]"


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
    """Dedup key of an invariants dict, fresh from `TunnelInvariants.to_dict` or read from a line.

    Two keys are equal exactly when the `dump_line` serializations are: no
    slope text holds "," or "|", and each bit is one digit (`load_entries`
    checks both on every loaded line).
    """
    binary = "".join(map(str, invariants["binary"]))
    return f"{invariants['first']}|{','.join(invariants['rest'])}|{binary}"


def entry_dict(descriptor: dict, invariants: dict, flags) -> dict:
    """One catalog entry; `invariants` is a `TunnelInvariants.to_dict()` already built for the key."""
    return {
        "descriptor": descriptor,
        "invariants": invariants,
        "flags": sorted(flags),
        "schema_version": SCHEMA_VERSION,
    }


def _torn(tail: bytes) -> bool:
    """Whether the bytes after a file's last newline are an append cut short.

    A JSON object cut anywhere before its end does not parse, so a tail that
    parses is a complete line that only lacks its newline.
    """
    try:
        json.loads(tail.decode("utf-8"))
    except ValueError:  # JSONDecodeError and UnicodeDecodeError alike
        return True
    return False


def load_entries(path) -> list[dict]:
    """Read a catalog file; a missing file is an empty catalog.

    A last line with no newline that does not parse was left by an
    interrupted append: it is skipped with a warning on stderr, and the next
    `append_lines` cuts it off.  A bad line anywhere else is an error, and so
    is an invariant value of the wrong shape, which `invariants_key` could
    not key apart.
    """
    if not os.path.exists(path):
        return []
    # built here, not at import: the one-shot commands never load a catalog
    is_first = re.compile(_FIRST_TEXT).fullmatch
    is_slope = re.compile(_SLOPE_TEXT).fullmatch
    # the scanner `json.loads` ends in, without the layers it adds per call
    scan = json.JSONDecoder().scan_once
    with open(path, "rb") as handle:
        head, newline, tail = handle.read().rpartition(b"\n")
    lines = head.decode("utf-8").split("\n") if newline else []
    torn = tail.strip() and _torn(tail)
    if not torn:
        lines.append(tail.decode("utf-8"))
    entries = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            entry, end = scan(line, 0)
        except (StopIteration, ValueError):
            end = -1
        if end != len(line):  # not one bare JSON value: `json.loads` parses it or words the error
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not a JSON line: {exc}") from None
        if not isinstance(entry, dict):
            raise ValueError(f"{path}:{lineno}: an entry must be a JSON object, got {type(entry).__name__}")
        version = entry.get("schema_version")
        # True == 1 == 1.0, so an equality test alone would let a bool or a float through
        if type(version) is not int or version != SCHEMA_VERSION:
            raise ValueError(f"{path}:{lineno}: schema_version {version!r}, expected {SCHEMA_VERSION}")
        invariants = entry.get("invariants")
        if not isinstance(invariants, dict):
            raise ValueError(f"{path}:{lineno}: entry has no \"invariants\" object")
        # a shape check only: a full parse_descriptor here would slow every catalog reload
        if not isinstance(entry.get("descriptor"), dict):
            raise ValueError(f"{path}:{lineno}: entry has no \"descriptor\" object")
        flags = entry.get("flags", [])
        # a string would pass `recompute_invariants`'s membership test as a substring search;
        # list comprehensions, not generators, here and below: the lists are short
        if not isinstance(flags, list) or not all([isinstance(flag, str) for flag in flags]):
            raise ValueError(f"{path}:{lineno}: \"flags\" must be a list of strings, got {flags!r}")
        if invariants.keys() != _INVARIANT_KEYS:
            raise ValueError(f"{path}:{lineno}: \"invariants\" keys must be exactly first, rest, binary")
        first, rest, binary = invariants["first"], invariants["rest"], invariants["binary"]
        if type(first) is not str or not is_first(first):
            raise ValueError(f"{path}:{lineno}: \"invariants\" first must be a slope text, got {first!r}")
        if type(rest) is not list or not all([type(text) is str and is_slope(text) for text in rest]):
            raise ValueError(f"{path}:{lineno}: \"invariants\" rest must be a list of slope texts, got {rest!r}")
        # type(...) is int also rejects True, False and floats, which equal 0 or 1
        if type(binary) is not list or not all([type(bit) is int and 0 <= bit <= 1 for bit in binary]):
            raise ValueError(f"{path}:{lineno}: \"invariants\" binary must be a list of 0 and 1, got {binary!r}")
        entries.append(entry)
    if torn:
        print(
            f"{path}:{len(lines) + 1}: warning: skipping a last line cut short by an interrupted append",
            file=sys.stderr,
        )
    return entries


def load_keys(path) -> set[str]:
    """Dedup keys of every entry already in the catalog file."""
    return {invariants_key(entry["invariants"]) for entry in load_entries(path)}


def append_lines(path, lines) -> None:
    """Append lines in one write, first cutting off a torn last line (see `load_entries`)."""
    if not lines:
        return
    data = "".join(line + "\n" for line in lines).encode("utf-8")
    with open(path, "a+b") as handle:
        size = handle.seek(0, os.SEEK_END)
        if size:
            handle.seek(size - 1)
            if handle.read(1) != b"\n":
                handle.seek(0)
                head, newline, tail = handle.read().rpartition(b"\n")
                if _torn(tail):
                    handle.truncate(len(head) + len(newline))
                else:
                    data = b"\n" + data
        handle.write(data)


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
