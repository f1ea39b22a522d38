"""The package's public names, and the aliases that no module but `slopes` may name."""

import ast
from pathlib import Path

import tunnelslopes

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
