"""Command-line front end.

Single computations, verification grids, enumeration into a catalog, and
invariant comparison.  This module only parses arguments and prints: the
engine check and the `enumerate` walk come from `iteration`, the grids from
`verify` and the catalog dedup from `catalog`.  All output is JSON lines
with a fixed key order per record type, rationals as "num/den", so identical
invocations are byte-identical.  Exit codes: 0 ok, 1 a verification found a
mismatch, 2 usage error (argparse), 3 an input failed validation, 4 an
internal error (any other exception, reported in one line), 141 (128 +
SIGPIPE) the reader closed stdout early, with nothing on stderr.

Handlers load on first use: each command imports what it runs when it runs,
so importing this module loads no other module of the package.
"""

import argparse
import functools
import os
import sys

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_INVALID = 3
EXIT_INTERNAL = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a writer its reader left

_INT_LIST = "expected comma-separated integers"  # the message for unreadable --a and --b text
_EMPTY_GRID = "the verification grid is empty; widen its bounds"


def _emit(obj: dict) -> None:
    from .slopes import dump_line

    print(dump_line(obj))


def _cmd_split(args) -> int:
    from .frames import FareyFrame, SplitKind, splitting_tunnel_slope

    frame = FareyFrame.parse(args.frame, bypass=args.bypass_validation)
    kind = SplitKind(args.kind)
    slope = splitting_tunnel_slope(frame, kind, args.n)
    _emit(
        {
            "frame": frame.text(),
            "kind": kind.value,
            "n": args.n,
            "slope": slope.text(),
            "coords": slope.coords,
            "flags": sorted(frame.flags),
        }
    )
    return EXIT_OK


def _cmd_iterate(args) -> int:
    from .frames import FareyFrame
    from .iteration import EngineMismatchError, SequenceKind, TwistSequence, _chain, descriptor_dict

    frame = FareyFrame.parse(args.frame, bypass=args.bypass_validation)
    kind = SequenceKind(args.kind)
    twists = TwistSequence.parse(args.twists)
    # the engine check runs here, before anything is printed: the one call a mismatch can come from
    try:
        invariants, trace = _chain(frame, kind, twists, args.splitting_bit, args.from_trivial, args.verify, args.trace)
    except EngineMismatchError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    if args.trace:
        for step in trace:
            _emit(
                {
                    "k": step.k,
                    "c_prev": list(step.c_prev.pair()),
                    "upper": list(step.upper.pair()),
                    "lower": list(step.lower.pair()),
                    "linking": step.linking,
                    "slope": step.slope.text(),
                }
            )
    out = {
        "descriptor": descriptor_dict(frame, kind, twists, args.splitting_bit, args.from_trivial),
        "invariants": invariants.to_dict(),
    }
    if args.verify:
        out["verified"] = True
    out["flags"] = sorted(frame.flags)
    _emit(out)
    return EXIT_OK


def _cmd_two_bridge_slopes(args) -> int:
    from .frames import parse_ints
    from .two_bridge import semisimple_slopes, validate_cf

    cf = validate_cf(parse_ints(args.a, _INT_LIST), parse_ints(args.b, _INT_LIST))
    invariants = semisimple_slopes(cf)
    _emit(
        {
            "a": list(cf.signs),
            "b": list(cf.turns),
            "cf": cf.text(),
            "invariants": invariants.to_dict(),
            "flags": sorted(cf.flags),
        }
    )
    return EXIT_OK


def _cmd_two_bridge_to_twists(args) -> int:
    from .frames import parse_ints
    from .two_bridge import TwoBridgeFraction, cf_to_twists

    # the structural rules only, so the flagged turns[0] == 0 fraction `from-twists` prints maps back
    cf = TwoBridgeFraction(parse_ints(args.a, _INT_LIST), parse_ints(args.b, _INT_LIST))
    _emit({"a": list(cf.signs), "b": list(cf.turns), "twists": cf_to_twists(cf).text()})
    return EXIT_OK


def _cmd_two_bridge_from_twists(args) -> int:
    from .iteration import TwistSequence
    from .two_bridge import twists_to_cf

    twists = TwistSequence.parse(args.twists)
    cf = twists_to_cf(twists)
    _emit(
        {
            "twists": twists.text(),
            "a": list(cf.signs),
            "b": list(cf.turns),
            "cf": cf.text(),
            "flags": sorted(cf.flags),
        }
    )
    return EXIT_OK


def _report_grid(result, cases_key: str, failures_key: str) -> int:
    """Print each failure, then the summary; a grid that checked nothing is an input error."""
    if not result.cases:
        raise ValueError(_EMPTY_GRID)
    for failure in result.failures:
        _emit(failure)
    _emit({cases_key: result.cases, failures_key: len(result.failures)})
    return EXIT_OK if result.ok else EXIT_FAILURE


def _cmd_verify_correspondence(args) -> int:
    from .verify import run_correspondence_grid, worker_count

    # checked before the grid is built: an empty box of a large depth still builds every sign slice
    if args.max_d < 0 or args.b_range < 1:
        raise ValueError(_EMPTY_GRID)
    result = run_correspondence_grid(args.max_d, args.b_range, workers=worker_count())
    return _report_grid(result, "checked", "failures")


def _cmd_verify_oracle(args) -> int:
    from .verify import run_oracle_grid, worker_count

    # checked before the grid is built: an empty grid of a large frame bound still scans every frame of its box
    if args.frame_bound < 1 or args.depth < 1 or args.n_range < 1:
        raise ValueError(_EMPTY_GRID)
    result = run_oracle_grid(args.frame_bound, args.depth, args.n_range, workers=worker_count())
    return _report_grid(result, "cases", "mismatches")


def _cmd_enumerate(args) -> int:
    from .catalog import add_chains
    from .frames import FareyFrame
    from .iteration import SequenceKind, chain_walk, check_trivial_frame

    frame = FareyFrame.parse(args.frame, bypass=args.bypass_validation)
    # a repeated --kind counts once, in the order first given
    kinds = [SequenceKind(value) for value in dict.fromkeys(args.kind)] if args.kind else SequenceKind
    # checked before the catalog is loaded or written, as the verify grids check theirs
    if args.depth < 1 or args.n_range < 1:
        raise ValueError("the enumeration grid is empty; widen its bounds")
    check_trivial_frame(frame, args.from_trivial)
    chains = chain_walk(frame, kinds, args.depth, args.n_range, args.splitting_bit, args.from_trivial)
    # written before any line is printed, so a catalog that cannot be written leaves stdout empty
    lines, count, appended = add_chains(args.catalog, chains, args.splitting_bit, args.from_trivial)
    for line in lines:
        print(line)
    _emit(
        {
            "points": count,
            "unique": len(lines),
            "appended": appended,
            "existing": len(lines) - appended,
        }
    )
    return EXIT_OK


def _cmd_compare(args) -> int:
    from .iteration import descriptor_invariants
    from .slopes import read_json

    (left_frame, left), (right_frame, right) = [
        descriptor_invariants(read_json(raw, "descriptor is not JSON"), bypass=args.bypass_validation)
        for raw in (args.left, args.right)
    ]
    _emit(
        {
            "equal": left == right,
            "left": left.to_dict(),
            "right": right.to_dict(),
            "flags": sorted({*left_frame.flags, *right_frame.flags}),
        }
    )
    return EXIT_OK


def _add_bypass(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--bypass-validation",
        action="store_true",
        help="skip frame validation; outputs get flagged unverified-bypass",
    )


def _args_split(split: argparse.ArgumentParser) -> None:
    from .frames import SplitKind

    split.add_argument("--frame", required=True, help="p,q,r,s")
    split.add_argument("--kind", required=True, choices=[k.value for k in SplitKind])
    split.add_argument("--n", required=True, type=int, help="half-twist count, nonzero")
    _add_bypass(split)
    split.set_defaults(func=_cmd_split)


def _args_iterate(iterate: argparse.ArgumentParser) -> None:
    from .iteration import SequenceKind

    iterate.add_argument("--frame", required=True, help="p,q,r,s")
    iterate.add_argument("--kind", required=True, choices=[k.value for k in SequenceKind])
    iterate.add_argument("--twists", required=True, help="comma-separated nonzero counts")
    iterate.add_argument("--splitting-bit", type=int, choices=(0, 1), default=0)
    iterate.add_argument("--from-trivial", action="store_true", help="chain grown out of the trivial knot")
    iterate.add_argument("--trace", action="store_true", help="print one JSON line per join first")
    iterate.add_argument("--verify", action="store_true", help="cross-check both slope engines")
    _add_bypass(iterate)
    iterate.set_defaults(func=_cmd_iterate)


def _args_two_bridge(two_bridge: argparse.ArgumentParser) -> None:
    tb_sub = two_bridge.add_subparsers(dest="tb_command", required=True)
    for name, func, needs_cf in (
        ("slopes", _cmd_two_bridge_slopes, True),
        ("to-twists", _cmd_two_bridge_to_twists, True),
        ("from-twists", _cmd_two_bridge_from_twists, False),
    ):
        tb = tb_sub.add_parser(name)
        if needs_cf:
            tb.add_argument("--a", required=True, help="comma-separated +-1 signs, innermost first")
            tb.add_argument("--b", required=True, help="comma-separated turn integers, innermost first")
        else:
            tb.add_argument("--twists", required=True, help="comma-separated nonzero counts")
        tb.set_defaults(func=func)


def _args_verify_correspondence(corr: argparse.ArgumentParser) -> None:
    corr.add_argument("--max-d", type=int, default=2, help="maximum depth")
    corr.add_argument("--b-range", type=int, default=2, help="turns range over [-B,B] without 0")
    corr.set_defaults(func=_cmd_verify_correspondence)


def _args_verify_oracle(oracle: argparse.ArgumentParser) -> None:
    oracle.add_argument("--frame-bound", type=int, default=2, help="frame entries range")
    oracle.add_argument("--depth", type=int, default=2, help="maximum twist sequence length")
    oracle.add_argument("--n-range", type=int, default=2, help="twist counts over [-N,N] without 0")
    oracle.set_defaults(func=_cmd_verify_oracle)


def _args_enumerate(enum: argparse.ArgumentParser) -> None:
    from .iteration import SequenceKind

    enum.add_argument("--catalog", required=True, help="JSON-lines catalog path, appended to")
    enum.add_argument("--frame", required=True, help="p,q,r,s")
    enum.add_argument("--kind", action="append", choices=[k.value for k in SequenceKind],
                      help="chain kind; repeatable, default all eight")
    enum.add_argument("--depth", type=int, default=2, help="maximum twist sequence length")
    enum.add_argument("--n-range", type=int, default=2, help="twist counts over [-N,N] without 0")
    enum.add_argument("--splitting-bit", type=int, choices=(0, 1), default=0)
    enum.add_argument("--from-trivial", action="store_true")
    _add_bypass(enum)
    enum.set_defaults(func=_cmd_enumerate)


def _args_compare(compare: argparse.ArgumentParser) -> None:
    compare.add_argument("--left", required=True, help="descriptor JSON object")
    compare.add_argument("--right", required=True, help="descriptor JSON object")
    _add_bypass(compare)
    compare.set_defaults(func=_cmd_compare)


# name -> (help line, function adding the command's arguments), in `-h` order
_COMMANDS = {
    "split": ("slope of a single splitting move", _args_split),
    "iterate": ("complete invariant of a splitting chain", _args_iterate),
    "two-bridge": ("2-bridge continued fraction tools", _args_two_bridge),
    "verify-correspondence": ("both invariant routes over a fraction grid", _args_verify_correspondence),
    "verify-oracle": ("both slope engines over a frame/twist grid", _args_verify_oracle),
    "enumerate": ("invariants of a chain family, deduplicated into a catalog", _args_enumerate),
    "compare": ("decide whether two chain descriptors give equal invariants", _args_compare),
}


@functools.cache
def build_parser(command: str | None) -> argparse.ArgumentParser:
    """The parser with every command name, and the arguments of `command` alone.

    A call parses one command, so the other commands' arguments are never
    built; `-h` and an unknown command still see every name and help line.
    Each parser is built once and kept for the next call.
    """
    parser = argparse.ArgumentParser(
        prog="tunnelslopes",
        description="Exact slope and binary invariants of tunnels built from twisted splittings of torus knots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in _COMMANDS.items():
        command_parser = sub.add_parser(name, help=help_text)
        if name == command:
            add_arguments(command_parser)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The parsed arguments of one call, from the kept parser of its command.

    Keeping parsers costs little.  A parser with every command's arguments
    allocates about 220 KiB (tracemalloc, Python 3.11).  A 12,432-point
    in-process `enumerate` peaked at 27.3-27.6 MB and ended at 18.7-18.8 MB
    resident, whether its parser was freed, kept, or kept with that whole one.
    """
    # 3.10-3.12 read `--n=--` as no value, 3.13 as the text "--".  Given `--n --n=--`, every version
    # reports an option taking a value as missing it, and refuses a flag its explicit value.
    words = []
    for arg in argv:
        if arg.startswith("--") and arg.endswith("=--"):
            words.append(arg[:-3])
        words.append(arg)
    # the first positional token is the command: the top-level parser has no option taking a value
    command = next((arg for arg in words if not arg.startswith("-")), None)
    # any other word builds the parser of no command, so at most eight parsers are kept
    return build_parser(command if command in _COMMANDS else None).parse_args(words)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # here, not at exit: a reader gone before the last write is met below
        return code
    except BrokenPipeError:  # as the Python `signal` docs advise: stdout to devnull, so no flush at exit meets the pipe
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # a bug, even an engine mismatch outside `_cmd_iterate`: exit 1 means a real mismatch
        message = str(exc).replace("\n", " ")
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
