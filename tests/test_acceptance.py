"""Acceptance gate: eight exact-arithmetic criteria, one test per criterion.

Each test prints a single summary line of the form

    [acceptance] criterion N (name): PASS [cases=...]

before asserting; run `pytest -s tests/test_acceptance.py` to see the lines
on a green run.  Everything here is integer and Fraction arithmetic, so every
comparison is exact with zero tolerance.
"""

import json
import random
from fractions import Fraction

from tunnelslopes import (
    SequenceKind,
    assemble_invariants,
    cf_to_twists,
    closed_form_slopes,
    invariants_equal,
    semisimple_slopes,
    simple_class,
    splitting_tunnel_slope,
    twists_to_cf,
    validate_cf,
    validate_frame,
)
from tunnelslopes.catalog import load_entries, recompute_invariants
from tunnelslopes.cli import main as cli_main
from tunnelslopes.verify import (
    cf_pairs,
    check_oracle_case,
    frames_in_box,
    nonzero_range,
    run_correspondence_grid,
    twist_tuples,
)

IDENTITY = validate_frame(1, 0, 0, 1)
TREFOIL_FRAME = validate_frame(2, 3, 1, 2)


def _report(num: int, name: str, failures: list, cases: int) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"[acceptance] criterion {num} ({name}): {status} [cases={cases}]")
    assert not failures, f"criterion {num}: {len(failures)} failures, first: {failures[0]!r}"


def test_criterion_1_singleton_chains_reduce_to_single_moves():
    failures = []
    cases = 0
    for frame in frames_in_box(5):
        for kind in SequenceKind:
            for n in nonzero_range(5):
                cases += 1
                chain = closed_form_slopes(frame, kind, (n,))[0]
                single = splitting_tunnel_slope(frame, kind.initial_split, n)
                if chain.value != single.value or chain.coords != single.coords:
                    failures.append((frame.text(), kind.value, n))
    assert cases == 49_280
    _report(1, "single-move reduction", failures, cases)


def test_criterion_2_slope_engines_agree():
    def case(frame, kind, tw):
        return ((frame.p, frame.q, frame.r, frame.s), kind.value, tw)

    cases = [
        case(frame, kind, tw)
        for frame in (IDENTITY, TREFOIL_FRAME)
        for kind in SequenceKind
        for tw in twist_tuples(4, 3)
    ]
    # the full grid is ~7.7M points; top up with seeded draws from it
    rng = random.Random(0x7A57E)
    box = frames_in_box(5)
    kinds = list(SequenceKind)
    entries = nonzero_range(3)
    while len(cases) < 99_864:
        frame = box[rng.randrange(len(box))]
        kind = kinds[rng.randrange(len(kinds))]
        tw = tuple(entries[rng.randrange(len(entries))] for _ in range(rng.randrange(1, 5)))
        cases.append(case(frame, kind, tw))
    failures = [f for f in map(check_oracle_case, cases) if f is not None]
    assert len(cases) <= 100_000
    _report(2, "dual slope engines agree", failures, len(cases))


def test_criterion_3_two_bridge_correspondence_exhaustive():
    result = run_correspondence_grid(4, 3)
    assert result.cases == 271_452
    _report(3, "two-bridge correspondence", list(result.failures), result.cases)


def test_criterion_4_twist_fraction_round_trip():
    failures = []
    cases = 0
    for tw in twist_tuples(5, 7):
        cases += 1
        if cf_to_twists(twists_to_cf(tw)).entries != tw:
            failures.append(tw)
    for signs, turns in cf_pairs(3, 3):
        cases += 1
        back = twists_to_cf(cf_to_twists(validate_cf(signs, turns)))
        if (back.signs, back.turns) != (signs, turns):
            failures.append((signs, turns))
    assert cases == 579_194 + 22_620
    _report(4, "twist/fraction round trip", failures, cases)


def test_criterion_5_leading_bracket_identities():
    failures = []
    cases = 0
    for n0 in range(-50, 51):
        if n0 == 0:
            continue
        cases += 1
        if n0 % 2 == 0:
            b = n0 // 2
            bracket = simple_class(Fraction(2 * b, 4 * b + 1))
        else:
            b = (n0 + 1) // 2
            bracket = simple_class(Fraction(2 * b - 1, 4 * b - 1))
        direct = simple_class(Fraction(n0, 2 * n0 + 1))
        computed = semisimple_slopes(twists_to_cf((n0,))).first
        if not (bracket == direct == computed):
            failures.append(n0)
    assert cases == 100
    _report(5, "leading bracket identities", failures, cases)


def test_criterion_6_binary_shape_over_grids():
    failures = []
    cases = 0
    for frame, from_trivial in ((TREFOIL_FRAME, False), (IDENTITY, True)):
        for kind in SequenceKind:
            for bit in (0, 1):
                for tw in twist_tuples(3, 2):
                    cases += 1
                    bits = assemble_invariants(frame, kind, tw, bit, from_trivial).binary
                    ones = [i for i, b in enumerate(bits) if b == 1]
                    if len(ones) > 2 or (len(ones) == 2 and ones[1] - ones[0] != 1):
                        failures.append((frame.text(), kind.value, bit, tw))
    assert cases == 2 * 8 * 2 * 84
    _report(6, "binary invariant shape", failures, cases)


def test_criterion_7_eight_kinds_distinct():
    invs = {
        kind: assemble_invariants(TREFOIL_FRAME, kind, (2, 3), 0, False)
        for kind in SequenceKind
    }
    failures = []
    cases = 0
    kinds = list(SequenceKind)
    for i, a in enumerate(kinds):
        for b in kinds[i + 1:]:
            cases += 1
            if invariants_equal(invs[a], invs[b]):
                failures.append((a.value, b.value))
    assert cases == 28
    _report(7, "eight chain kinds distinct", failures, cases)


def test_criterion_8_cli_determinism_and_catalog(tmp_path, capsys):
    failures = []
    argv = [
        "iterate", "--frame", "2,3,1,2", "--kind", "drop-lambda-mixed-tau",
        "--twists=2,-3,4", "--trace", "--verify",
    ]
    code1 = cli_main(list(argv))
    out1 = capsys.readouterr().out
    code2 = cli_main(list(argv))
    out2 = capsys.readouterr().out
    if not (code1 == code2 == 0 and out1 == out2 and out1):
        failures.append("repeated iterate runs differ")

    path = tmp_path / "catalog.jsonl"
    enum_argv = ["enumerate", "--catalog", str(path), "--frame", "2,3,1,2",
                 "--depth", "2", "--n-range", "2"]
    if cli_main(list(enum_argv)) != 0:
        failures.append("enumerate exited nonzero")
    capsys.readouterr()
    entries = load_entries(path)
    if not entries:
        failures.append("enumerate produced an empty catalog")
    bad = sum(1 for e in entries if recompute_invariants(e).to_dict() != e["invariants"])
    if bad:
        failures.append(f"{bad} catalog entries recompute differently")
    if cli_main(list(enum_argv)) != 0:
        failures.append("enumerate rerun exited nonzero")
    rerun_out = capsys.readouterr().out
    summary = json.loads(rerun_out.splitlines()[-1])
    if summary["appended"] != 0 or load_entries(path) != entries:
        failures.append("rerun changed the catalog")
    cases = 2 + len(entries)
    _report(8, "CLI determinism and catalog round trip", failures, cases)
