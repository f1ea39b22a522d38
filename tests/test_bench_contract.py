"""Names the benchmark in `perfbench/` resolves in the package.

`perfbench/spans.py` rebinds functions by module and attribute name, and
`perfbench/bench.py` and its tests read a few internals.  Deleting or
renaming one of them breaks only the benchmark run, which is not part of
this suite; these checks make the suite fail instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from tunnelslopes import iteration, verify

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
