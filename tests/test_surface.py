"""The package's public names and the modules they load, the signatures of
the constructors that have a private twin, the aliases that no module but
`slopes` may name, where a `Fraction` may be built, and the one module that
owns each input rule."""

import ast
import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tunnelslopes
from tunnelslopes import SimpleSlope, TunnelInvariants, TwistSequence, TwoBridgeFraction, cli, frames, iteration, two_bridge
from tunnelslopes.slopes import Frozen

PACKAGE = Path(tunnelslopes.__file__).resolve().parent
PUBLIC = [
    "CorrespondenceReport",
    "EngineMismatchError",
    "FareyFrame",
    "SequenceKind",
    "SimpleSlope",
    "Slope",
    "SplitKind",
    "TunnelInvariants",
    "TwistSequence",
    "TwoBridgeFraction",
    "assemble_invariants",
    "cf_to_twists",
    "closed_form_slopes",
    "oracle_slopes",
    "semisimple_slopes",
    "splitting_tunnel_slope",
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


def test_public_names_are_the_20_and_no_module_but_slopes_names_an_alias():
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
    assert len(tunnelslopes.__all__) == 20
    assert not [name for name in tunnelslopes.__all__ if name.startswith("_") or "trusted" in name]


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def test_only_slopes_read_json_calls_json_loads():
    trees = _trees()
    calls = [
        (name, node.lineno)
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and "loads" in _names(node.func)
    ]
    assert [name for name, _ in calls] == ["slopes.py"]
    read_json = next(node for node in trees["slopes.py"].body if getattr(node, "name", None) == "read_json")
    assert read_json.lineno <= calls[0][1] <= read_json.end_lineno


@pytest.mark.parametrize("text", ["twist count must be an integer", "twist count must be nonzero"])
def test_each_twist_count_message_is_written_once(text):
    counts = {path.name: path.read_text(encoding="utf-8").count(text) for path in PACKAGE.glob("*.py")}
    assert {name: count for name, count in counts.items() if count} == {"frames.py": 1}


def test_no_module_writes_a_twist_count_message_of_its_own():
    # the wording `TwistSequence` and `cf_to_twists` used before both checked through `step_sign`
    assert [path.name for path in PACKAGE.glob("*.py") if "twist counts must be nonzero integers" in
            path.read_text(encoding="utf-8")] == []


def test_only_frames_names_the_disk_pair_tags():
    tags = {"RHO_COORDS", "LAMBDA_COORDS", "TAU_COORDS"}
    naming = {name for name, tree in _trees().items() if _names(tree) & tags}
    assert naming == {"frames.py"}


def test_slopes_owns_the_slope_text_shapes():
    def assigned(tree: ast.Module) -> set[str]:
        return {target.id for node in tree.body if isinstance(node, ast.Assign) for target in node.targets
                if isinstance(target, ast.Name)}

    trees = _trees()
    assert {"_SLOPE_TEXT", "_FIRST_TEXT"} <= assigned(trees["slopes.py"])
    assert not {"_SLOPE_TEXT", "_FIRST_TEXT"} & assigned(trees["catalog.py"])


def _defined_in(name: str) -> list[str]:
    """The modules that bind `name` at top level, by `def`, `class` or assignment."""
    return [path for path, tree in _trees().items() for node in tree.body
            if getattr(node, "name", None) == name
            or any(isinstance(target, ast.Name) and target.id == name for target in getattr(node, "targets", ()))]


@pytest.mark.parametrize("name, home", [("parse_descriptor", "iteration.py"), ("descriptor_invariants", "iteration.py"),
                                        ("_DESCRIPTOR_KEYS", "iteration.py"), ("read_json", "slopes.py")])
def test_the_descriptor_reader_and_the_json_decoder_are_each_defined_once(name, home):
    # the descriptor's reader sits beside its writer, `descriptor_dict`, and the decoder beside `dump_line`
    assert _defined_in(name) == [home]


def test_the_grid_size_rule_and_the_cap_are_defined_once_beside_prefix_walk():
    # every grid command loads `iteration`, and `enumerate` loads no `verify`
    for name in ("_check_grid_size", "GRID_CAP"):
        assert _defined_in(name) == ["iteration.py"], name
    # each grid's walk or runner sizes it, and `chain_walk` checks its frame too, so the CLI passes on no grid's
    # shape and holds no walk's precondition
    for command in (cli._cmd_verify_oracle, cli._cmd_verify_correspondence, cli._cmd_enumerate):
        assert not {"_check_grid_size", "GRID_CAP", "check_trivial_frame"} & _read_names(command), command.__name__
    sized = [path for path, tree in _trees().items() for node in ast.walk(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_check_grid_size"]
    assert sorted(set(sized)) == ["iteration.py", "verify.py"] and sized.count("iteration.py") == 1


def test_iteration_takes_the_join_rules_from_frames():
    assert iteration.step_sign is frames.step_sign
    # the move's orientation, the tag memo and the twist-count box each have one home, read by the chain modules
    for name in ("_oriented_pairs", "_position_tags", "_tag_lists", "nonzero_range"):
        assert _defined_in(name) == ["frames.py"], name
    for name in ("_oriented_pairs", "_position_tags", "nonzero_range"):
        assert getattr(iteration, name) is getattr(frames, name), name
    assert two_bridge._position_tags is frames._position_tags
    assert "_oriented_pairs" in frames.splitting_disk_slope.__code__.co_names
    assert "_oriented_pairs" in iteration.chain_coefficients.__code__.co_names
    assert _defined_in("chain_walk") == ["iteration.py"]


def _read_names(function) -> set[str]:
    """The global and attribute names a function's code reads, its nested functions and comprehensions included."""
    codes, names = [function.__code__], set()
    while codes:
        code = codes.pop()
        names |= set(code.co_names)
        codes += [const for const in code.co_consts if inspect.iscode(const)]
    return names


ORACLE_STEPS = {"_oracle_start", "_oracle_join", "oracle_slopes"}
CLOSED_FORM_RULES = {"_oriented_pairs", "chain_coefficients", "join_step", "_readout", "prefix_walk", "chain_walk"}


def test_the_parity_rule_has_one_writer_and_the_oracle_reads_no_closed_form_rule():
    assert "% 2" not in (PACKAGE / "two_bridge.py").read_text(encoding="utf-8")
    assert "step_sign" in two_bridge.twists_to_cf.__code__.co_names
    # the engines stay independent: the oracle builds its classes from the frame's entries and reads no walk
    read = set(iteration.oracle_slopes.__code__.co_names)
    assert not {"_oriented_pairs", "chain_coefficients", "join_step", "prefix_walk", "chain_walk"} & read
    for step in (iteration.oracle_slopes, iteration._oracle_start, iteration._oracle_join):
        assert not CLOSED_FORM_RULES & _read_names(step), step.__name__
    # the closed form's fold, its readout and the walk read no oracle step
    for rule in (iteration.closed_form_slopes, iteration._readout, iteration.chain_walk):
        assert not ORACLE_STEPS & _read_names(rule), rule.__name__
    # the bridge route's rules and its fold read nothing of the chain route
    defined = vars(iteration).items()
    chain_route = {name for name, value in defined if getattr(value, "__module__", None) == iteration.__name__}
    chain_route |= {"cf_to_twists", "verify_correspondence", "_IDENTITY_FRAME", "_oriented_pairs", "step_sign"}
    assert {"_readout", "_oracle_join", "assemble_invariants", "_cached_tables"} <= chain_route
    for rule in (two_bridge._bridge_lead, two_bridge._bridge_entry, two_bridge.semisimple_slopes):
        assert not chain_route & _read_names(rule), rule.__name__


def test_verify_holds_no_chain_rule_and_imports_no_module_of_the_package_late():
    tree = _trees()["verify.py"]
    assert not _names(tree) & {"chain_walk", "chain_slope", "position_coords"}
    late = [node.lineno for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
            for node in ast.walk(function) if isinstance(node, ast.ImportFrom) and node.level]
    assert late == []


def _loaded_by(code: str) -> list[str]:
    """The `tunnelslopes` modules a fresh interpreter holds after running `code`."""
    script = f"import sys\n{code}\nprint(*sorted(name for name in sys.modules if name.startswith('tunnelslopes')))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def test_a_bare_import_loads_no_submodule():
    assert _loaded_by("import tunnelslopes") == ["tunnelslopes"]


def test_every_submodule_resolves_after_a_bare_import():
    loaded = _loaded_by(
        "import tunnelslopes\n"
        "bare = sorted(name for name in sys.modules if name.startswith('tunnelslopes'))\n"
        "assert bare == ['tunnelslopes'], bare\n"
        "assert callable(tunnelslopes.catalog.recompute_invariants)\n"
        "assert callable(tunnelslopes.frames.step_sign)\n"
        "assert tunnelslopes.verify and tunnelslopes.cli"
    )
    assert {"tunnelslopes.catalog", "tunnelslopes.frames", "tunnelslopes.verify", "tunnelslopes.cli"} <= set(loaded)
    assert sorted(tunnelslopes._MODULES) == sorted(
        path.stem for path in PACKAGE.glob("*.py") if path.stem not in {"__init__", "__main__"}
    )


def test_importing_the_cli_loads_no_other_module_of_the_package():
    assert _loaded_by("import tunnelslopes.cli") == ["tunnelslopes", "tunnelslopes.cli"]


def test_split_loads_neither_the_two_bridge_tools_nor_the_grids():
    loaded = _loaded_by("from tunnelslopes.cli import main\nmain(['split', '--frame', '2,3,1,2', '--kind', "
                        "'lift-rho', '--n', '2'])")
    assert loaded == ["tunnelslopes", "tunnelslopes.cli", "tunnelslopes.frames", "tunnelslopes.slopes"]
    # every command prints through `slopes.dump_line`, so only those that read or write catalog records load it;
    # `iterate` takes its descriptor from `iteration`
    for argv in (["two-bridge", "slopes", "--a", "1,1", "--b", "1,1"],
                 ["verify-oracle", "--frame-bound", "1", "--depth", "1", "--n-range", "1"],
                 ["iterate", "--frame", "2,3,1,2", "--kind", "drop-rho-pure", "--twists", "2,1", "--verify"]):
        loaded = _loaded_by(f"from tunnelslopes.cli import main\nassert main({argv!r}) == 0")
        assert "tunnelslopes.slopes" in loaded and "tunnelslopes.catalog" not in loaded, argv
    assert tunnelslopes.catalog.dump_line is tunnelslopes.slopes.dump_line
    assert tunnelslopes.catalog.descriptor_dict is iteration.descriptor_dict


def test_compare_loads_only_the_descriptor_and_json_modules():
    descriptor = '{"frame":"2,3,1,2","kind":"drop-rho-pure","twists":"2,1"}'
    loaded = _loaded_by(f"from tunnelslopes.cli import main\nassert main(['compare', '--left', {descriptor!r}, "
                        f"'--right', {descriptor!r}]) == 0")
    assert loaded == ["tunnelslopes", "tunnelslopes.cli", "tunnelslopes.frames", "tunnelslopes.iteration",
                      "tunnelslopes.slopes"]


def test_enumerate_loads_neither_the_two_bridge_tools_nor_the_grids(tmp_path):
    catalog = str(tmp_path / "catalog.jsonl")
    loaded = _loaded_by(f"from tunnelslopes.cli import main\nassert main(['enumerate', '--catalog', {catalog!r}, "
                        "'--frame', '2,3,1,2', '--depth', '2', '--n-range', '1']) == 0")
    assert "tunnelslopes.iteration" in loaded and "tunnelslopes.catalog" in loaded
    assert "tunnelslopes.two_bridge" not in loaded and "tunnelslopes.verify" not in loaded


@pytest.mark.parametrize("name", PUBLIC)
def test_each_public_name_is_its_modules_object_and_is_not_kept(name):
    value = getattr(tunnelslopes, name)
    assert value is getattr(sys.modules[value.__module__], name)
    assert value.__module__.rsplit(".", 1)[-1] in {"frames", "iteration", "slopes", "two_bridge"}
    # looked up afresh on every read: a copy kept here would outlive a rebinding in its module
    assert name not in vars(tunnelslopes)


# helpers that left `__all__`: each keeps its home module and is read there, not from the top level
HELPERS = {
    "HomologyClass": "frames",
    "binary_invariants": "iteration",
    "format_rational": "slopes",
    "position_coords": "frames",
    "splitting_disk_slope": "frames",
    "step_sign": "frames",
}


@pytest.mark.parametrize("name", sorted(HELPERS))
def test_each_helper_left_out_of_all_stays_in_its_module(name):
    module = getattr(tunnelslopes, HELPERS[name])
    value = getattr(module, name)
    assert value.__module__ == module.__name__
    assert name not in tunnelslopes.__all__ and name not in vars(tunnelslopes)
    with pytest.raises(AttributeError, match=f"has no attribute {name!r}"):
        getattr(tunnelslopes, name)


def test_a_name_rebound_in_its_module_reads_rebound(monkeypatch):
    original = iteration.oracle_slopes
    monkeypatch.setattr(iteration, "oracle_slopes", patched := lambda *args: None)
    assert tunnelslopes.oracle_slopes is patched
    from tunnelslopes import oracle_slopes

    assert oracle_slopes is patched
    monkeypatch.undo()
    assert tunnelslopes.oracle_slopes is original


def test_the_lazy_surface_lists_and_refuses_as_before():
    namespace = {}
    exec("from tunnelslopes import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == PUBLIC
    assert set(PUBLIC) | {"frames", "iteration", "slopes", "two_bridge", "__version__"} <= set(dir(tunnelslopes))
    assert tunnelslopes.two_bridge is sys.modules["tunnelslopes.two_bridge"]
    # an unknown name, a private one and a name that left the API all stay unknown
    for name in ("no_such_name", "_chain", "slope_to_simple"):
        with pytest.raises(AttributeError, match=f"has no attribute {name!r}"):
            getattr(tunnelslopes, name)
