"""Span tracing installed from outside the program.

`Tracer.install` rebinds public functions in every loaded `tunnelslopes`
module that holds them, so calls made inside the package are caught as
well as the benchmark's own calls.  Methods are rebound on their class.
`Tracer.uninstall` puts every original back; `installed_wrappers` lets a
caller prove that nothing is left behind.

Spans live in memory as (name, start, end, parent, case) tuples and are
written out once, at the end.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute) of each traced function.  Class-qualified names are
# methods; they are rebound on the class.
SPANNED = (
    ("tunnelslopes.iteration", "closed_form_slopes"),
    ("tunnelslopes.iteration", "oracle_slopes"),
    ("tunnelslopes.iteration", "assemble_invariants"),
    ("tunnelslopes.slopes", "slope_to_simple"),
    ("tunnelslopes.slopes", "invariants_equal"),
    ("tunnelslopes.slopes", "TunnelInvariants.to_dict"),
    ("tunnelslopes.two_bridge", "validate_cf"),
    ("tunnelslopes.two_bridge", "cf_to_twists"),
    ("tunnelslopes.two_bridge", "semisimple_slopes"),
    ("tunnelslopes.two_bridge", "verify_correspondence"),
    ("tunnelslopes.verify", "check_oracle_case"),
    ("tunnelslopes.verify", "check_correspondence_case"),
    ("tunnelslopes.catalog", "load_entries"),
    ("tunnelslopes.catalog", "invariants_key"),
    ("tunnelslopes.catalog", "entry_dict"),
    ("tunnelslopes.catalog", "dump_line"),
    ("tunnelslopes.catalog", "append_lines"),
    ("tunnelslopes.cli", "main"),
)

# Methods that are only counted: they run several times per join, and a
# span each would swamp the layers around them.
COUNTED = (
    ("tunnelslopes.frames", "HomologyClass.__add__"),
    ("tunnelslopes.frames", "HomologyClass.__rmul__"),
    ("tunnelslopes.frames", "HomologyClass.__neg__"),
)

_MARK = "__perfbench_original__"


def layer_name(module: str, attr: str) -> str:
    """`tunnelslopes.slopes` + `TunnelInvariants.to_dict` -> `slopes.to_dict`."""
    return f"{module.rsplit('.', 1)[1]}.{attr.rsplit('.', 1)[-1]}"


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def installed_wrappers() -> list[str]:
    """Every tunnelslopes attribute, method included, that is still a wrapper."""
    found = []
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("tunnelslopes"):
            continue
        for attr, value in vars(module).items():
            if hasattr(value, _MARK):
                found.append(f"{mod_name}.{attr}")
            if isinstance(value, type):
                found += [f"{mod_name}.{attr}.{m}" for m, v in vars(value).items() if hasattr(v, _MARK)]
    return found


class Tracer:
    """Records spans and counts while installed; see the module docstring.

    `case_root` names the layer whose outermost call starts a new case, so
    every span carries the id of the case that caused it.
    """

    def __init__(self, case_root: str):
        self.case_root = case_root
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.case = -1
        self.root_depth = 0
        self.counts: dict[str, int] = defaultdict(int)
        self._undo: list = []

    def install(self) -> None:
        for module, attr in SPANNED:
            self._rebind(module, attr, self._spanned)
        for module, attr in COUNTED:
            self._rebind(module, attr, self._counted)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _rebind(self, module: str, attr: str, make) -> None:
        owner, name = _resolve(module, attr)
        original = getattr(owner, name)
        wrapper = make(layer_name(module, attr), original)
        setattr(wrapper, _MARK, original)
        self._undo.append((owner, name, original))
        setattr(owner, name, wrapper)
        if owner is not sys.modules[module]:
            return
        for mod_name, other in list(sys.modules.items()):
            if mod_name.startswith("tunnelslopes") and other is not owner:
                for alias, value in list(vars(other).items()):
                    if value is original:
                        self._undo.append((other, alias, original))
                        setattr(other, alias, wrapper)

    def _spanned(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter_ns
        root = name == self.case_root
        joins = name == "iteration.closed_form_slopes"
        loads = name == "catalog.load_entries"
        appends = name == "catalog.append_lines"

        def wrapper(*args, **kwargs):
            if root:
                if not self.root_depth:
                    self.case += 1
                self.root_depth += 1
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((-1,))
            stack.append(idx)
            counts[name] += 1
            if joins:
                counts["joins"] += len(args[2])
            elif appends:
                counts["bytes_appended"] += sum(len(line.encode("utf-8")) + 1 for line in args[1])
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if root:
                    self.root_depth -= 1
                spans[idx] = (name_id, start, end, parent, self.case)
            if loads:
                counts["lines_loaded"] += len(result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts["homology_ops"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def self_times_us(self) -> dict[str, float]:
        """Total self time per layer, in microseconds."""
        child = [0] * len(self.spans)
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name_id, start, end, _, _), inner in zip(self.spans, child):
            out[self.names[name_id]] += (end - start - inner) / 1000
        return out

    def total_us(self, name: str) -> float:
        """Summed duration of every span of one layer, in microseconds."""
        name_ids = {i for i, n in enumerate(self.names) if n == name}
        return sum(end - start for name_id, start, end, _, _ in self.spans if name_id in name_ids) / 1000

    def write(self, path) -> None:
        """One tab-separated line per span: name, start_ns, end_ns, parent, case."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart_ns\tend_ns\tparent\tcase\n")
            for name_id, start, end, parent, case in self.spans:
                handle.write(f"{self.names[name_id]}\t{start}\t{end}\t{parent}\t{case}\n")
