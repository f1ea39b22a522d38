"""The package's public names, the signatures of the constructors that have a
private twin, the aliases that no module but `slopes` may name, and where a
`Fraction` may be built."""

import ast
import inspect
import re
from pathlib import Path

import pytest

import tunnelslopes
from tunnelslopes import SimpleSlope, TunnelInvariants, TwistSequence, TwoBridgeFraction
from tunnelslopes.slopes import Frozen

PACKAGE = Path(tunnelslopes.__file__).resolve().parent
PUBLIC = [
    "CorrespondenceReport",
    "EngineMismatchError",
    "FareyFrame",
    "HomologyClass",
    "SequenceKind",
    "SimpleSlope",
    "Slope",
    "SplitKind",
    "TunnelInvariants",
    "TwistSequence",
    "TwoBridgeFraction",
    "assemble_invariants",
    "binary_invariants",
    "cf_to_twists",
    "closed_form_slopes",
    "format_rational",
    "oracle_slopes",
    "position_coords",
    "semisimple_slopes",
    "splitting_disk_slope",
    "splitting_tunnel_slope",
    "step_sign",
    "twists_to_cf",
    "validate_cf",
    "validate_frame",
    "verify_correspondence",
]
# spelled `==`, `SimpleSlope` and `pair_class` everywhere; `slopes` keeps them for the benchmark only
ALIASES = {"invariants_equal", "simple_class", "slope_to_simple"}


def _names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update({node.name, node.asname})
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_public_names_are_the_26_and_no_module_but_slopes_names_an_alias():
    assert sorted(tunnelslopes.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(tunnelslopes, name) is not None, name
    modules = sorted(path for path in PACKAGE.glob("*.py") if path.name != "slopes.py")
    assert modules
    for path in modules:
        named = _names(ast.parse(path.read_text(encoding="utf-8"))) & ALIASES
        assert not named, f"{path.name} names {sorted(named)}"


def test_no_module_but_slopes_and_the_oracle_names_fraction():
    # the oracle's own `Fraction` per join stays: its gcd checks the closed form's lowest-terms pairs
    oracle = {
        line
        for node in ast.parse((PACKAGE / "iteration.py").read_text(encoding="utf-8")).body
        if (isinstance(node, ast.ImportFrom) and node.module == "fractions")
        or (isinstance(node, ast.FunctionDef) and node.name == "oracle_slopes")
        for line in range(node.lineno, node.end_lineno + 1)
    }
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "slopes.py":
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        # by word, as `grep -w` reads it, so comments and docstrings count too
        named = {lineno for lineno, line in enumerate(lines, 1) if re.search(r"\bFraction\b", line)}
        stray = named - oracle if path.name == "iteration.py" else named
        assert not stray, f"{path.name} names Fraction on lines {sorted(stray)}"


# written out as they were before the private `_trusted` constructor came in
SIGNATURES = {
    TunnelInvariants: "(first: 'SimpleSlope | Slope', rest: 'tuple[Slope, ...]', binary: 'tuple[int, ...]') -> 'None'",
    TwistSequence: "(entries: 'tuple[int, ...]') -> 'None'",
    TwoBridgeFraction: "(signs: 'tuple[int, ...]', turns: 'tuple[int, ...]') -> 'None'",
    SimpleSlope: "(representative: 'Fraction') -> 'None'",
}


@pytest.mark.parametrize("cls", list(SIGNATURES), ids=lambda cls: cls.__name__)
def test_public_constructor_signature_is_unchanged(cls):
    assert str(inspect.signature(cls)) == SIGNATURES[cls]
    assert cls._trusted.__func__ is Frozen._trusted.__func__


def test_the_private_constructor_is_defined_once_on_frozen():
    defined = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {item: node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef) for item in node.body}
        defined += [
            (path.name, owner.get(node))
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "_trusted"
        ]
    assert defined == [("slopes.py", "Frozen")]


def test_no_private_constructor_is_public():
    assert len(tunnelslopes.__all__) == 26
    assert not [name for name in tunnelslopes.__all__ if name.startswith("_") or "trusted" in name]
