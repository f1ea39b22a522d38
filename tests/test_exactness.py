"""Every value in the package is exact: no float literal and no use of `float`.

The one allowed mention is the type check in `slopes._as_exact`, which
rejects floats at the door.
"""

import ast
from pathlib import Path

import pytest

import tunnelslopes

SOURCES = sorted(Path(tunnelslopes.__file__).parent.glob("*.py"))
ALLOWED = {("slopes.py", "_as_exact")}


def _float_uses(tree: ast.AST):
    """(enclosing function, line, what) for each float literal or `float` name."""
    def walk(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield func, node.lineno, f"literal {node.value!r}"
        elif isinstance(node, ast.Name) and node.id == "float":
            yield func, node.lineno, "name float"
        elif isinstance(node, ast.Attribute) and node.attr == "float":
            yield func, node.lineno, "attribute float"
        for child in ast.iter_child_nodes(node):
            yield from walk(child, func)

    yield from walk(tree, None)


def test_sources_found():
    assert {path.name for path in SOURCES} >= {"slopes.py", "iteration.py", "two_bridge.py"}


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_no_floats_in_source(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [
        f"{path.name}:{line}: {what}"
        for func, line, what in _float_uses(tree)
        if (path.name, func) not in ALLOWED
    ]
    assert found == []


def test_the_allowed_use_is_still_there():
    tree = ast.parse((Path(tunnelslopes.__file__).parent / "slopes.py").read_text(encoding="utf-8"))
    assert [func for func, _, what in _float_uses(tree)] == ["_as_exact"]
