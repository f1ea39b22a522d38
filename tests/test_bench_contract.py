"""Names and behaviours the benchmark in `perfbench/` relies on.

`perfbench/spans.py` rebinds functions by module and attribute name, and
`perfbench/bench.py` and its tests read a few internals.  Deleting or
renaming one of them breaks only the benchmark run, which is not part of
this suite; these checks make the suite fail instead.

The benchmark's own tests also assert three behaviours of the package: the
sign-table cache takes hits, the correspondence check reaches
`semisimple_slopes` through the module global, and every workload builds
at least one `Fraction`.  The checks for them here follow ROADMAP item 2,
which replaces those probes with metrics that name no internals; they
change or go when it lands.  So does the check that the three
`slopes` aliases kept only for the benchmark still do what their
replacements do.
"""

import cProfile
import importlib
import importlib.util
import os
import pstats
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tunnelslopes import catalog, cli, iteration, two_bridge, verify
from tunnelslopes.frames import validate_frame
from tunnelslopes.slopes import (
    SimpleSlope,
    Slope,
    TunnelInvariants,
    invariants_equal,
    pair_class,
    simple_class,
    slope_to_simple,
)

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("module, attr", spans.SPANNED + spans.COUNTED)
def test_traced_name_resolves(module, attr):
    importlib.import_module(module)
    owner, name = spans._resolve(module, attr)
    assert callable(getattr(owner, name, None)), f"{module}.{attr}"


def test_sign_table_cache_is_inspectable():
    assert callable(iteration._cached_tables.cache_info)


def test_oracle_engine_is_a_verify_global():
    # check_oracle_case must look the oracle up at call time, so a patched one is seen
    assert verify.oracle_slopes is iteration.oracle_slopes
    assert "oracle_slopes" in verify.check_oracle_case.__code__.co_names


def test_repeated_closed_form_call_hits_the_sign_table_cache():
    frame, kind, twists = validate_frame(2, 3, 1, 2), iteration.SequenceKind.DROP_RHO_PURE, (3, -2, 5)
    iteration.closed_form_slopes(frame, kind, twists)
    before = iteration._cached_tables.cache_info().hits
    iteration.closed_form_slopes(frame, kind, twists)
    assert iteration._cached_tables.cache_info().hits > before


def test_bridge_invariant_is_a_two_bridge_global():
    # the benchmark reads self time of semisimple_slopes under the correspondence check
    assert "semisimple_slopes" in two_bridge.verify_correspondence.__code__.co_names


def test_catalog_layers_are_catalog_globals():
    # the benchmark spans these calls inside `enumerate`, and none inside `iteration.chain_walk`, which makes the points
    names = catalog.add_chains.__code__.co_names
    for name in ("invariants_key", "entry_dict", "dump_line", "append_lines"):
        assert name in names, name


def test_the_descriptor_reader_still_resolves_in_catalog():
    # `catalog-enumerate`'s final checks read it as `catalog.parse_descriptor`; it lives in `iteration`
    assert catalog.parse_descriptor is iteration.parse_descriptor


def _fraction_new_calls(fn, *args) -> int:
    """`Fraction.__new__` calls during fn(*args), counted with cProfile as the benchmark counts them."""
    profiler = cProfile.Profile()
    profiler.runcall(fn, *args)
    return sum(
        stat[1]
        for (filename, _, function), stat in pstats.Stats(profiler).stats.items()
        if function == "__new__" and os.path.basename(filename) == "fractions.py"
    )


def test_correspondence_case_and_enumerate_build_a_fraction(tmp_path, capsys):
    assert _fraction_new_calls(verify.check_correspondence_case, ((1, -1), (2, 3))) >= 1
    argv = ["enumerate", "--catalog", str(tmp_path / "c.jsonl"), "--frame", "2,3,1,2",
            "--kind", "drop-rho-pure", "--depth", "1", "--n-range", "1"]
    assert _fraction_new_calls(cli.main, argv) >= 1
    capsys.readouterr()


@given(st.fractions(max_denominator=1000).filter(lambda x: x != 0))
def test_pinned_slope_aliases_match_their_replacements(x):
    assert simple_class(x) == SimpleSlope(x)
    assert slope_to_simple(x) == pair_class(x.denominator, x.numerator) == SimpleSlope(1 / x)
    mod_one = TunnelInvariants(SimpleSlope(x), (), (0,))
    shifted = TunnelInvariants(SimpleSlope(x + 1), (), (0,))
    full = TunnelInvariants(Slope(x, "(t)"), (), (0,))  # a mod-1 first never equals a full first
    for other, equal in ((shifted, True), (full, False)):
        assert (mod_one == other) is equal
        assert invariants_equal(mod_one, other) is equal
    with pytest.raises(ZeroDivisionError):
        slope_to_simple(0)
    for alias in (simple_class, slope_to_simple):
        with pytest.raises(TypeError, match="bools are not exact"):
            alias(True)
