"""Append-only JSON-lines catalog of computed invariants.

One line per entry: a descriptor (enough to recompute everything), the
invariants it produced, warning flags, and a schema version.  Deduplication
keys on the invariant values joined into one compact string, equal exactly
when their canonical serializations are equal, so entries whose invariants
differ are never merged.  `add_chains` dedups the points `iteration.chain_walk`
grows, each its prefix plus one join, and writes each line through
`slopes.dump_line`.  A line in the exact form `enumerate` writes is read by
one regular expression; any other line goes through `json`, with the same
entries and errors as if every line did.  The patterns compile at import:
only `enumerate` loads this module.
"""

from __future__ import annotations

import gc
import os
import re
import sys

from .iteration import descriptor_dict, descriptor_invariants
from .iteration import parse_descriptor  # perfbench pin (workloads.py): delete after ROADMAP item 2
from .slopes import _FIRST_TEXT, _SLOPE_TEXT, TunnelInvariants, dump_line, read_json

SCHEMA_VERSION = 1

_INVARIANT_KEYS = frozenset(("first", "rest", "binary"))


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


# The characters of a JSON string that JSON leaves unescaped, as `dump_line` writes them
_JSON_CHARS = r'[^"\\\x00-\x1f]*'


def _json_list(item: str) -> str:
    """A compact JSON list of `item`s, its inside as one group."""
    return r"\[((?:" + item + r"(?:," + item + r")*)?)\]"


# Exactly the lines `dump_line(entry_dict(descriptor_dict(...), ...))` writes, in its key order.  Each
# value has a shape `_json_entry` accepts, so a match needs no check.
_CANONICAL = (
    r'\{"descriptor":\{'
    r'"frame":"(' + _JSON_CHARS + r')","kind":"(' + _JSON_CHARS + r')","twists":"(' + _JSON_CHARS + r')",'
    r'"splitting_bit":([01]),"from_trivial":(true|false)\},'
    r'"invariants":\{"first":"(' + _FIRST_TEXT + r')",'
    r'"rest":' + _json_list(r'"(?:' + _SLOPE_TEXT + r')"') + r',"binary":' + _json_list("[01]") + r'\},'
    r'"flags":' + _json_list(r'"' + _JSON_CHARS + r'"') + r',"schema_version":' + str(SCHEMA_VERSION) + r'\}'
)
_canonical, _is_first, _is_slope = (
    re.compile(text).fullmatch for text in (_CANONICAL, _FIRST_TEXT, _SLOPE_TEXT)
)
# a matched bit's digit to its int: a lookup costs less than `int()`
_BIT = {"0": 0, "1": 1}


def _torn(tail: bytes) -> bool:
    """Whether the bytes after a file's last newline are an append cut short.

    A JSON object cut anywhere before its end does not parse, so a tail that
    parses is a complete line that only lacks its newline.
    """
    try:
        read_json(tail.decode("utf-8"), "tail")
    except ValueError:  # UnicodeDecodeError too
        return True
    return False


def _json_entry(line: str, where: str) -> dict:
    """One nonblank catalog line read through `json`, every value's shape checked.

    `load_entries` reads each line not in the `_CANONICAL` form this way,
    and the tests hold the pattern's reading of a line to this one.  Errors
    begin with `where`, the line's `path:lineno`.
    """
    entry = read_json(line, f"{where}: not a JSON line")
    if not isinstance(entry, dict):
        raise ValueError(f"{where}: an entry must be a JSON object, got {type(entry).__name__}")
    version = entry.get("schema_version")
    # True == 1 == 1.0, so an equality test alone would let a bool or a float through
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(f"{where}: schema_version {version!r}, expected {SCHEMA_VERSION}")
    invariants = entry.get("invariants")
    if not isinstance(invariants, dict):
        raise ValueError(f"{where}: entry has no \"invariants\" object")
    # a shape check only: a full parse_descriptor here would slow every catalog reload
    if not isinstance(entry.get("descriptor"), dict):
        raise ValueError(f"{where}: entry has no \"descriptor\" object")
    flags = entry.get("flags", [])
    # a string would pass `recompute_invariants`'s membership test as a substring search;
    # list comprehensions, not generators, here and below: the lists are short
    if not isinstance(flags, list) or not all([isinstance(flag, str) for flag in flags]):
        raise ValueError(f"{where}: \"flags\" must be a list of strings, got {flags!r}")
    if invariants.keys() != _INVARIANT_KEYS:
        raise ValueError(f"{where}: \"invariants\" keys must be exactly first, rest, binary")
    first, rest, binary = invariants["first"], invariants["rest"], invariants["binary"]
    if type(first) is not str or not _is_first(first):
        raise ValueError(f"{where}: \"invariants\" first must be a slope text, got {first!r}")
    if type(rest) is not list or not all([type(text) is str and _is_slope(text) for text in rest]):
        raise ValueError(f"{where}: \"invariants\" rest must be a list of slope texts, got {rest!r}")
    # type(...) is int also rejects True, False and floats, which equal 0 or 1
    if type(binary) is not list or not all([type(bit) is int and 0 <= bit <= 1 for bit in binary]):
        raise ValueError(f"{where}: \"invariants\" binary must be a list of 0 and 1, got {binary!r}")
    return entry


def load_entries(path) -> list[dict]:
    """Read a catalog file; a missing file is an empty catalog.

    A line in the exact form `enumerate` writes is read by the `_CANONICAL`
    pattern alone; any other line goes through `json` (`_json_entry`).  The
    entries and the error messages are the same either way.  A last line
    with no newline that does not parse was left by an interrupted append:
    it is skipped with a warning on stderr, and the next `append_lines` cuts
    it off.  A bad line anywhere else is an error, and so is an invariant
    value of the wrong shape, which `invariants_key` could not key apart.
    """
    if not os.path.exists(path):
        return []
    with open(path, "rb") as handle:
        head, newline, tail = handle.read().rpartition(b"\n")
    try:
        lines = head.decode("utf-8").split("\n") if newline else []
    except UnicodeDecodeError as exc:
        lineno = head.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{lineno}: not a UTF-8 line: {exc.reason}") from None
    torn = tail.strip() and _torn(tail)
    if not torn:
        lines.append(tail.decode("utf-8"))
    entries = []
    collecting = gc.isenabled()
    gc.disable()  # no entry holds a cycle, and each of the collector's passes would walk every entry built so far
    try:
        for lineno, line in enumerate(lines, start=1):
            match = _canonical(line)
            if match:
                frame, kind, twists, bit, from_trivial, first, rest, binary, flags = match.groups()
                # a JSON list's inside, split on the '","' no string in it can hold
                entries.append({
                    "descriptor": {
                        "frame": frame,
                        "kind": kind,
                        "twists": twists,
                        "splitting_bit": _BIT[bit],
                        "from_trivial": from_trivial == "true",
                    },
                    "invariants": {
                        "first": first,
                        "rest": rest[1:-1].split('","') if rest else [],
                        "binary": [_BIT[digit] for digit in binary[::2]],
                    },
                    "flags": flags[1:-1].split('","') if flags else [],
                    "schema_version": SCHEMA_VERSION,
                })
            elif line.strip():
                entries.append(_json_entry(line, f"{path}:{lineno}"))
    finally:
        if collecting:
            gc.enable()
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


def add_chains(path, chains, splitting_bit: int, from_trivial: bool) -> tuple[list[str], int, int]:
    """Catalog `chains`, (FareyFrame, SequenceKind, TwistSequence, invariants dict) points of `iteration.chain_walk`.

    The file is read before the first point is computed; the first point of
    each key gives its line, and the lines the file lacks go in one append.
    Returns the run's unique lines in order, the point count and the count appended.
    """
    known = load_keys(path)
    unique: dict[str, str] = {}  # dedup key -> entry line
    count = 0
    for count, (frame, kind, twists, invariants) in enumerate(chains, start=1):
        key = invariants_key(invariants)
        if key not in unique:
            descriptor = descriptor_dict(frame, kind, twists, splitting_bit, from_trivial)
            unique[key] = dump_line(entry_dict(descriptor, invariants, frame.flags))
    fresh = [line for key, line in unique.items() if key not in known]
    append_lines(path, fresh)
    return list(unique.values()), count, len(fresh)


def recompute_invariants(entry: dict) -> TunnelInvariants:
    """Recompute an entry's invariants from its descriptor, re-reading a frame its flags mark bypassed the same way."""
    return descriptor_invariants(entry["descriptor"], bypass="unverified-bypass" in entry.get("flags", []))[1]
