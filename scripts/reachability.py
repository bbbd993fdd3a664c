#!/usr/bin/env python3
"""What in ``src/`` does no command, script, e2e benchmark or example
reach?  ``make surface`` prints it, and ``tests/test_reachability.py``
holds the definition list to the named ``SURVIVORS`` below.

The roots are ``src/repro/cli.py``, ``scripts/``, ``benchmarks/e2e/`` and
``examples/``.  The walk has two steps.

1. *Modules.*  An ``ast`` import walk from the roots (absolute imports:
   ``src/`` has no others).  A package ``__init__``'s re-exports resolve
   to the module that defines the name and are not themselves uses, so a
   module that only its package's ``__init__`` and its own tests import
   is unreached.
2. *Definitions.*  Every top-level function and class of a ``src/``
   module, and every method of such a class.  The code of the roots
   outside ``src/`` and the module-level code of every reached module is
   reached code.  A definition is reached when reached code names it --
   as a bare name, an attribute, a keyword argument or an identifier
   inside a string constant -- and then its own code is reached code;
   this iterates to a fixpoint.  Attributes resolve by name only, so the
   walk over-approximates and never lists a live definition.  Imports,
   docstrings and ``__all__`` are not uses.  ``getattr(x, f"_pre{...}")``
   reaches every definition whose name starts with ``_pre``, a reached
   class's dunder methods are reached, and a method is considered only
   once its class is reached.  Every definition of an unreached module
   is unreached.

Run it as ``python scripts/reachability.py``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROOT_DIRS = ("scripts", "benchmarks/e2e", "examples")
CLI = "repro.cli"

_ORDERING = ("the valid-ordering oracle (section 5) behind "
             "test_ordering_properties and test_global_heartbeat_consistency")
_INTERLEAVE = ("the SC and relaxed-model interleavings behind "
               "test_relaxed_model and test_ordering_properties; ROADMAP's "
               "sandwich lower bound")
_INPUT = "a generated input of the lifeguard tests and benchmarks"
_SOS = ("the read side of the SOS history (section 4.2): what the "
        "equivalence, determinism and checkpoint tests compare engines by")
_REPRO = "the documented way to replay a minimal repro (docs/verification.md)"
_OWED = "owed to the next deletion tranche (ROADMAP): {} lines, {} tests"

# Definitions (``path::qualname``) and whole modules (``path``) that only
# tests reach and that stay, each with why: reference oracles, test
# inputs and documented library entry points.  tests/test_reachability.py
# fails when the walk lists a definition not named here, or when a name
# here no longer matches anything the walk lists.
SURVIVORS = {
    "src/repro/core/ordering.py::random_valid_ordering": _ORDERING,
    "src/repro/core/ordering.py::is_valid_ordering": _ORDERING,
    "src/repro/core/ordering.py::serialize_ordering": _ORDERING,
    "src/repro/trace/interleave.py": _INTERLEAVE,
    "src/repro/trace/generator.py::random_program": _INPUT,
    "src/repro/trace/generator.py::simulated_taint_program": _INPUT,
    "src/repro/core/epoch.py::partition_with_skew": (
        "one of the five documented cuts; the no-false-negative property "
        "tests and benchmarks/test_heartbeat_skew.py use it"),
    "src/repro/core/state.py::SOSHistory.frontier": _SOS,
    "src/repro/core/state.py::SOSHistory.published": _SOS,
    "src/repro/workloads/server.py::SecureServer": (
        "the TaintCheck epoch-size sensitivity workload (EXPERIMENTS.md)"),
    "src/repro/obs/recorder.py::read_events": (
        "the documented reader of --emit-events logs"),
    "src/repro/verify/shrink.py::load_repro": _REPRO,
    "src/repro/verify/generator.py::TraceCase.from_json": _REPRO,
    "src/repro/shadow/shadow_memory.py": _OWED.format(225, 31),
    "src/repro/sim/logformat.py": _OWED.format(86, 21),
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def module_paths(root):
    """``{dotted module name: path}`` for every ``.py`` under ``src/``."""
    src = root / "src"
    return {
        ".".join(p.relative_to(src).with_suffix("").parts)
        .removesuffix(".__init__"): p
        for p in sorted(src.rglob("*.py"))
    }


def imports(tree):
    """``(module, name)`` per import; ``name`` is ``None`` for ``import m``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield from ((node.module, alias.name) for alias in node.names)


def reached_modules(root, trees, modules):
    """Step 1: the ``src/`` modules the roots import, re-exports resolved."""

    def defining_module(module, name):
        if f"{module}.{name}" in modules:
            return f"{module}.{name}"
        path = modules.get(module)
        if path is not None and name and path.name == "__init__.py":
            for base, exported in imports(trees[path]):
                if exported == name:
                    return defining_module(base, name)
        return module if path is not None else None

    reached = {CLI}
    todo = [modules[CLI], *root_files(root)]
    while todo:
        for imp in imports(trees[todo.pop()]):
            found = defining_module(*imp)
            if found is not None and found not in reached:
                reached.add(found)
                if modules[found].name != "__init__.py":  # re-exports only
                    todo.append(modules[found])
    return reached


def root_files(root):
    """The roots outside ``src/``; this script, whose ``SURVIVORS`` name
    what it must not count as used, is not one."""
    return [p for d in ROOT_DIRS for p in sorted((root / d).glob("*.py"))
            if p.resolve() != Path(__file__).resolve()]


def names_used(nodes):
    """Identifiers the code under ``nodes`` names, and ``getattr`` f-string
    prefixes.  Docstrings and ``__all__`` assignments are skipped."""
    names, prefixes, skip = set(), set(), set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Expr) and isinstance(
                    node.value, ast.Constant):  # a docstring
                skip.add(id(node.value))
            if isinstance(node, (ast.Assign, ast.AugAssign)) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in (node.targets if isinstance(node, ast.Assign)
                          else [node.target])
            ):
                skip.update(id(n) for n in ast.walk(node.value))
            if id(node) in skip:
                continue
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg:
                names.add(node.arg)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(_IDENTIFIER.findall(node.value))
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "getattr" and len(node.args) > 1
                  and isinstance(node.args[1], ast.JoinedStr)
                  and node.args[1].values
                  and isinstance(node.args[1].values[0], ast.Constant)):
                prefixes.add(node.args[1].values[0].value)
                skip.add(id(node.args[1].values[0]))
    return names, prefixes


class Definition:
    """One top-level function or class, or one method of such a class."""

    def __init__(self, path, node, owner=None):
        self.path, self.node, self.owner = path, node, owner
        self.name = node.name
        self.qualname = f"{owner.name}.{node.name}" if owner else node.name
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        self.lines = node.end_lineno - first + 1

    @property
    def key(self):
        return f"{self.path}::{self.qualname}"

    def methods(self):
        if not isinstance(self.node, ast.ClassDef):
            return []
        return [Definition(self.path, n, self) for n in self.node.body
                if isinstance(n, _DEFS[:2])]

    def named_by(self, names, prefixes):
        dunder = self.name.startswith("__") and self.name.endswith("__")
        return (self.name in names or self.name.startswith(prefixes)
                or (dunder and self.owner is not None))

    def code(self):
        """The nodes this definition runs, its methods excluded."""
        n = self.node
        if not isinstance(n, ast.ClassDef):
            return [n]
        return [*n.decorator_list, *n.bases, *n.keywords,
                *(s for s in n.body if not isinstance(s, _DEFS[:2]))]


def walk(root):
    """``(unreached modules, unreached definitions)`` for the tree at
    ``root``: ``src/`` paths, and ``Definition``s by path and line."""
    root = Path(root)
    modules = module_paths(root)
    trees = {p: ast.parse(p.read_text())
             for p in [*modules.values(), *root_files(root)]}
    reached_mods = reached_modules(root, trees, modules)

    unreached, candidates = [], []
    code = [trees[p] for p in root_files(root)]
    for module, path in modules.items():
        body = trees[path].body
        tops = [Definition(path.relative_to(root).as_posix(), node)
                for node in body if isinstance(node, _DEFS)]
        if module not in reached_mods:
            unreached += tops
            continue
        code += [s for s in body if not isinstance(s, _DEFS)]
        candidates += tops

    names, prefixes = set(), set()
    while code:
        more_names, more_prefixes = names_used(code)
        names |= more_names
        prefixes |= more_prefixes
        code, waiting = [], []
        while candidates:
            d = candidates.pop()
            if d.named_by(names, tuple(prefixes)):
                code += d.code()
                candidates += d.methods()  # a reached class's methods
            else:
                waiting.append(d)
        candidates = waiting
    unreached_mods = sorted(
        p.relative_to(root).as_posix() for m, p in modules.items()
        if m not in reached_mods and not p.name.startswith("__")
    )
    unreached += candidates
    unreached.sort(key=lambda d: (d.path, d.node.lineno))
    return unreached_mods, unreached


def survivor_of(definition):
    """The ``SURVIVORS`` key that names ``definition``, or ``None``."""
    for key in (definition.key, definition.path):
        if key in SURVIVORS:
            return key
    return None


def main():
    unreached_mods, unreached = walk(ROOT)
    print("src modules no command, script, e2e benchmark or example imports:",
          len(unreached_mods), *unreached_mods)
    named = {}
    for d in unreached:
        named.setdefault(survivor_of(d), []).append(d)
    unnamed = named.pop(None, [])
    print(f"defs reached only from tests: {len(unnamed)} "
          f"({sum(d.lines for d in unnamed)} lines)")
    for d in unnamed:
        print(f"  {d.key} ({d.lines} lines)")
    print(f"named survivors: {sum(map(len, named.values()))} defs "
          f"({sum(d.lines for ds in named.values() for d in ds)} lines)")
    for key in [key for key in SURVIVORS if key in named]:
        ds = named[key]
        size = f"{len(ds)} defs, " if len(ds) > 1 else ""
        print(f"  {key} ({size}{sum(d.lines for d in ds)} lines): "
              f"{SURVIVORS[key]}")


if __name__ == "__main__":
    main()
