#!/usr/bin/env python3
"""What in ``src/`` does no command, script, e2e benchmark or example
reach or set?  ``make surface`` prints it, and
``tests/test_reachability.py`` holds the definition list to the named
``SURVIVORS`` and the knob list to the named ``KNOB_SURVIVORS`` below.

The roots are ``src/repro/cli.py``, ``scripts/``, ``benchmarks/e2e/`` and
``examples/``.  The walk has three steps.

1. *Modules.*  An ``ast`` import walk from the roots (absolute imports:
   ``src/`` has no others).  A package ``__init__``'s re-exports resolve
   to the module that defines the name and are not themselves uses, so a
   module that only its package's ``__init__`` and its own tests import
   is unreached.
2. *Definitions.*  Every top-level function and class of a ``src/``
   module, every method of such a class, and every name a module-level
   assignment binds (a constant: all its targets bare names, dunders
   aside; its value is its code).  The code of the roots outside
   ``src/`` and the rest of the module-level code of every reached
   module is reached code.  A definition is reached when reached code names it --
   as a bare name, an attribute, a keyword argument or an identifier
   inside a string constant -- and then its own code is reached code;
   this iterates to a fixpoint.  Attributes resolve by name, with one
   exception: inside a method of a ``src/`` class, an attribute of the
   method's first parameter (``self.x``, ``cls.x``) names ``x`` only in
   that class's family -- the classes in the bases of the class or of any
   of its subclasses, by name, across ``src/`` and the roots.  So the
   walk over-approximates and never lists a live definition.  Imports,
   docstrings and ``__all__`` are not uses.  ``getattr(x, f"_pre{...}")``
   reaches every definition whose name starts with ``_pre``, a reached
   class's dunder methods are reached, and a method is considered only
   once its class is reached.  Every definition of an unreached module
   is unreached.
3. *Knobs.*  Every defaulted parameter (positional or keyword-only) of
   a reached function or method other than a dunder, with ``__init__``
   called by its class's name, and every defaulted field of a reached
   ``@dataclass``, called by the class's name.  Reached code sets a knob
   when it passes it by keyword to a call of that name, passes
   positionals that cover it, calls that name with ``*``/``**``, or
   names the callable other than by calling it (annotations and
   ``isinstance`` arguments aside; ``getattr`` strings and prefixes
   count).  Naming a class to reach one of its attributes
   (``Klass.staticmethod(...)``, ``Klass.CONSTANT``) or as a base is not
   naming its constructor; ``cls(...)`` in a classmethod calls the owning
   class, and ``super().__init__(...)``, or a call of a subclass that
   inherits ``__init__``, calls the bases' constructors.
   ``replace(x, field=...)`` sets a field, and so, on a
   non-frozen dataclass, does an attribute store or an in-place
   mutation (``x.f = ...``, ``x.f[k] = ...``, ``x.f += ...``,
   ``x.f.append(...)``).  Names resolve as in step 2, so the walk
   over-approximates "set" and never lists a knob a command sets.  A
   parameter passed on unchanged sets nothing unless it is set itself,
   to a fixpoint: a default that only flows in from an unset knob is
   unset too.  A listed knob becomes a constant.

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
    "src/repro/core/epoch.py::partition_with_skew": (
        "one of the five documented cuts; the no-false-negative property "
        "tests and benchmarks/test_heartbeat_skew.py use it"),
    "src/repro/core/state.py::SOSHistory.frontier": _SOS,
    "src/repro/core/state.py::SOSHistory.published": _SOS,
    "src/repro/obs/recorder.py::read_events": (
        "the documented reader of --emit-events logs"),
    "src/repro/verify/shrink.py::load_repro": _REPRO,
    "src/repro/verify/generator.py::TraceCase.from_json": _REPRO,
}

_SHAPE = "a shape parameter of a generated test input"

# Knobs (``path::Callable(param)`` or ``path::Dataclass.field``) that
# only tests set and that stay, each with why.  tests/test_reachability.py
# fails when step 3 lists a knob not named here, or when a name here no
# longer matches anything it lists.
KNOB_SURVIVORS = {
    "src/repro/core/ordering.py::all_valid_orderings(up_to_epoch)": (
        "the section 5 oracle's epoch bound (test_ordering, "
        "test_reaching_defs)"),
    "src/repro/lifeguards/sequential.py::"
    "true_errors_under_any_ordering(stats)": (
        "the section 5 oracle's prefix-reuse counters, which "
        "test_sequential_fast_paths asserts"),
    "src/repro/trace/generator.py::simulated_alloc_program(num_locations)":
        _SHAPE,
    "src/repro/trace/generator.py::"
    "simulated_alloc_program(inject_error_rate)": _SHAPE,
    "src/repro/trace/generator.py::alloc_handoff_program(num_locations)":
        _SHAPE,
    "src/repro/trace/generator.py::simulated_taint_program(num_locations)":
        _SHAPE,
    "src/repro/trace/generator.py::simulated_taint_program(taint_rate)":
        _SHAPE,
    "src/repro/trace/generator.py::simulated_taint_program(untaint_rate)":
        _SHAPE,
    "src/repro/trace/generator.py::simulated_taint_program(jump_rate)":
        _SHAPE,
    "src/repro/verify/generator.py::AdversarialCaseGenerator(num_locations)":
        _SHAPE,
    "src/repro/workloads/server.py::SecureServer(attack_rate)": (
        "the share of requests that skip validation: the registered "
        "workload has none, test_server's true-positive cases need some"),
    "src/repro/serve/server.py::ServerThread(recorder)": (
        "the in-process daemon's recorder: ReproServer sets the serve.* "
        "gauges at construction, which test_metrics and test_server read"),
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


def names_used(nodes, receiver=None):
    """Identifiers the code under ``nodes`` names, ``getattr`` f-string
    prefixes, and the attributes it takes of ``receiver`` (a method's
    first parameter; not where a nested function rebinds it), which are
    not among the names.  Docstrings and ``__all__`` assignments are
    skipped."""
    names, prefixes, attrs, skip, shadowed = set(), set(), set(), set(), set()
    for top in nodes:
        for node in ast.walk(top) if receiver else ():
            if node is not top and receiver in _params(node):
                shadowed.update(id(n) for n in ast.walk(node))
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
                if (isinstance(node.value, ast.Name) and receiver
                        and node.value.id == receiver
                        and id(node) not in shadowed):
                    attrs.add(node.attr)
                else:
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
    return names, prefixes, attrs


def _params(node):
    """The parameter names of a function or lambda node (else none)."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
        return ()
    a = node.args
    return [x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                            a.vararg, a.kwarg) if x is not None]


def _receiver(d):
    """The first parameter of method ``d`` when ``d`` never rebinds it,
    else ``None`` (a static method, a function, module code)."""
    if d is None or d.owner is None or _decorated(d.node, "staticmethod"):
        return None
    args = d.node.args.posonlyargs + d.node.args.args
    if not args or any(
        isinstance(n, ast.Name) and n.id == args[0].arg
        and not isinstance(n.ctx, ast.Load) for n in ast.walk(d.node)
    ):
        return None
    return args[0].arg


def families(trees):
    """``family(name)``: the names of the classes in the bases of class
    ``name`` or of any of its subclasses (itself included), by name over
    every class statement in ``trees``."""
    bases = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases.setdefault(node.name, set()).update(_base_names(node))

    def closure(start, step):
        found, todo = {start}, [start]
        while todo:
            for nxt in step(todo.pop()):
                if nxt not in found:
                    found.add(nxt)
                    todo.append(nxt)
        return found

    def family(name):
        subs = closure(name, lambda c: [k for k, bs in bases.items()
                                        if c in bs])
        return {a for sub in subs
                for a in closure(sub, lambda c: bases.get(c, ()))}

    return family


def _assigned(node):
    """The names a module-level statement binds as constants: every
    target of an assignment whose targets are all bare names (an
    annotated one needs a value), except dunders; else none."""
    if isinstance(node, ast.AnnAssign):
        targets = [node.target] if node.value is not None else []
    else:
        targets = node.targets if isinstance(node, ast.Assign) else []
    if not all(isinstance(t, ast.Name) for t in targets):
        return []
    return [t.id for t in targets
            if not (t.id.startswith("__") and t.id.endswith("__"))]


class Definition:
    """One top-level function or class, one method of such a class, or
    one name a module-level assignment binds."""

    def __init__(self, path, node, owner=None, name=None):
        self.path, self.node, self.owner = path, node, owner
        self.name = name or node.name
        self.qualname = f"{owner.name}.{self.name}" if owner else self.name
        first = min([node.lineno] + [
            d.lineno for d in getattr(node, "decorator_list", ())])
        self.lines = node.end_lineno - first + 1

    @property
    def key(self):
        return f"{self.path}::{self.qualname}"

    def methods(self):
        if not isinstance(self.node, ast.ClassDef):
            return []
        return [Definition(self.path, n, self) for n in self.node.body
                if isinstance(n, _DEFS[:2])]

    def named_by(self, names, prefixes, scoped):
        dunder = self.name.startswith("__") and self.name.endswith("__")
        return (self.name in names or self.name.startswith(prefixes)
                or (self.owner is not None and (dunder or (
                    self.owner.name, self.name) in scoped)))

    def code(self):
        """The nodes this definition runs, its methods excluded."""
        n = self.node
        if not isinstance(n, _DEFS):
            return [n.value]  # an assignment
        if not isinstance(n, ast.ClassDef):
            return [n]
        return [*n.decorator_list, *n.bases, *n.keywords,
                *(s for s in n.body if not isinstance(s, _DEFS[:2]))]


def walk(root):
    """``(unreached modules, unreached definitions, unset knobs)`` for the
    tree at ``root``: ``src/`` paths, then ``Definition``s and ``Knob``s
    by path and line."""
    root = Path(root)
    modules = module_paths(root)
    trees = {p: ast.parse(p.read_text())
             for p in [*modules.values(), *root_files(root)]}
    reached_mods = reached_modules(root, trees, modules)

    unreached, candidates = [], []
    code = [trees[p] for p in root_files(root)]
    for module, path in modules.items():
        body = trees[path].body
        rel = path.relative_to(root).as_posix()
        tops = [Definition(rel, node) for node in body
                if isinstance(node, _DEFS)]
        tops += [Definition(rel, node, name=name) for node in body
                 for name in _assigned(node)]
        if module not in reached_mods:
            unreached += tops
            continue
        code += [s for s in body
                 if not isinstance(s, _DEFS) and not _assigned(s)]
        candidates += tops

    family = families(trees.values())
    names, prefixes, scoped = set(), set(), set()
    code = [(None, node) for node in code]
    reached_code, reached = list(code), []
    while code:
        for d, node in code:
            receiver = _receiver(d)
            more_names, more_prefixes, attrs = names_used([node], receiver)
            names |= more_names
            prefixes |= more_prefixes
            if attrs:
                scoped |= {(c, a) for c in family(d.owner.name)
                           for a in attrs}
        code, waiting = [], []
        while candidates:
            d = candidates.pop()
            if d.named_by(names, tuple(prefixes), scoped):
                runs = [(d, node) for node in d.code()]
                code += runs
                reached_code += runs
                reached.append(d)
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
    return unreached_mods, unreached, unset_knobs(
        reached, reached_code, tuple(prefixes))


_MUTATORS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "remove", "discard", "clear", "sort", "reverse",
})


class Knob:
    """One defaulted parameter of a reached function or method, or one
    defaulted field of a reached ``@dataclass``."""

    def __init__(self, definition, name, callee, position, field=False,
                 frozen=True):
        self.definition, self.name, self.callee = definition, name, callee
        self.position, self.field, self.frozen = position, field, frozen
        d = definition
        if field:
            self.label = f"{d.qualname}.{name}"
        else:
            call = d.owner.name if d.name == "__init__" else d.qualname
            self.label = f"{call}({name})"

    @property
    def path(self):
        return self.definition.path

    @property
    def key(self):
        return f"{self.path}::{self.label}"


def _callee(call):
    """The name a call resolves to: its function's name or attribute."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def _callee_key(call):
    """What ``_aliases`` keys a call by: a bare name, ``super().__init__``
    for that call, else ``None``."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if (isinstance(func, ast.Attribute) and func.attr == "__init__"
            and isinstance(func.value, ast.Call)
            and getattr(func.value.func, "id", None) == "super"):
        return "super().__init__"
    return None


def _aliases(d):
    """What calls inside method ``d`` resolve to by name: its first
    parameter in a classmethod is the owning class, and
    ``super().__init__`` is a call of each base named in the class."""
    if d is None or d.owner is None:
        return {}
    aliases = {"super().__init__": _base_names(d.owner.node)}
    args = d.node.args.posonlyargs + d.node.args.args
    if _decorated(d.node, "classmethod") and args:
        aliases[args[0].arg] = [d.owner.name]
    return aliases


def _base_names(node):
    """The names of class ``node``'s bases (``B``, ``module.B`` or a
    generic ``B[T]``)."""
    bases = [b.value if isinstance(b, ast.Subscript) else b
             for b in node.bases]
    names = [getattr(b, "id", None) or getattr(b, "attr", None)
             for b in bases]
    return [n for n in names if n]


def _heirs(reached):
    """``{class: names whose calls construct it}``: the class itself and,
    to a fixpoint, every reached subclass that inherits its ``__init__``."""
    inherits = {d.name: _base_names(d.node) for d in reached
                if isinstance(d.node, ast.ClassDef) and not any(
                    isinstance(s, _DEFS[:2]) and s.name == "__init__"
                    for s in d.node.body)}
    heirs = {}
    for d in reached:
        found, todo = {d.name}, [d.name]
        while todo:
            base = todo.pop()
            for sub, bases in inherits.items():
                if base in bases and sub not in found:
                    found.add(sub)
                    todo.append(sub)
        heirs[d.name] = found
    return heirs


def _decorated(node, name):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if (getattr(target, "id", None) or getattr(target, "attr", None)) == name:
            return dec
    return None


def _knobs_of(d):
    """The knobs of reached definition ``d``."""
    node = d.node
    if not isinstance(node, _DEFS):
        return []  # an assignment
    if isinstance(node, ast.ClassDef):
        dec = _decorated(node, "dataclass")
        if dec is None:
            return []
        frozen = isinstance(dec, ast.Call) and any(
            k.arg == "frozen" and getattr(k.value, "value", False)
            for k in dec.keywords)
        fields = [s for s in node.body if isinstance(s, ast.AnnAssign)
                  and isinstance(s.target, ast.Name)
                  and "ClassVar" not in ast.unparse(s.annotation)]
        return [Knob(d, s.target.id, d.name, i, True, frozen)
                for i, s in enumerate(fields) if s.value is not None]
    name = d.name
    if name.startswith("__") and name != "__init__":
        return []  # called by the interpreter, never by name
    args = node.args
    positional = args.posonlyargs + args.args
    if d.owner is not None and not _decorated(node, "staticmethod"):
        positional = positional[1:]
    callee = d.owner.name if name == "__init__" else name
    knobs = [Knob(d, a.arg, callee, i) for i, a in enumerate(positional)
             if i >= len(positional) - len(args.defaults)]
    knobs += [Knob(d, a.arg, callee, None)
              for a, default in zip(args.kwonlyargs, args.kw_defaults)
              if default is not None]
    return knobs


def _not_uses(tree):
    """Ids of nodes under ``tree`` that name a callable without using it:
    annotations, ``isinstance``/``issubclass`` class arguments, base
    lists and the object of an attribute (``Klass`` in ``Klass.attr``)."""
    skip = set()
    for node in ast.walk(tree):
        notes = []
        if isinstance(node, ast.Attribute):
            notes = [node.value]
        elif isinstance(node, ast.ClassDef):
            notes = node.bases
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            notes = [x.annotation for x in (
                *a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                if x is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "id", None) in ("isinstance",
                                                     "issubclass")
              and len(node.args) == 2):
            notes = [node.args[1]]
        skip.update(id(n) for note in notes if note is not None
                    for n in ast.walk(note))
    return skip


def _stored_attrs(target):
    """Attribute names an assignment target stores to or mutates:
    ``x.f = ...``, ``x.f[k] = ...``, ``(x.f, y.g) = ...``."""
    while isinstance(target, (ast.Subscript, ast.Starred)):
        target = target.value
    if isinstance(target, ast.Attribute):
        return [target.attr]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [a for t in target.elts for a in _stored_attrs(t)]
    return []


def _forwarded(d):
    """``{name: knob key}`` for the defaulted parameters of function ``d``
    that its body passes on unchanged (never rebound, never shadowed)."""
    if d is None or isinstance(d.node, ast.ClassDef):
        return {}
    rebound = set()
    for node in ast.walk(d.node):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            rebound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)) and node is not d.node:
            a = node.args
            rebound.update(x.arg for x in (*a.posonlyargs, *a.args,
                                           *a.kwonlyargs, a.vararg, a.kwarg)
                           if x is not None)
    return {k.name: k.key for k in _knobs_of(d) if k.name not in rebound}


class _Settings:
    """What reached code does that can set a knob: calls by callee name
    and slot (keyword or position), ``*``/``**`` calls, non-call
    references, and attribute stores and in-place mutations."""

    def __init__(self, reached_code):
        #: ``(callee, slot) -> {None, or the knob key the value forwards}``
        self.sources = {}
        self.starred, self.referenced, self.stored = set(), set(), set()
        for d, top in reached_code:
            if d is not None and top in getattr(d.node, "bases", ()):
                continue  # a base list names no constructor
            self._scan(top, _forwarded(d), _aliases(d))

    def _scan(self, top, forwarded, aliases):
        calls = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                calls.add(id(node.func))
                self._call(node, forwarded, aliases)
            elif isinstance(node, (ast.Assign, ast.Delete)):
                for t in node.targets:
                    self.stored.update(_stored_attrs(t))
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                self.stored.update(_stored_attrs(node.target))
        skip = _not_uses(top)
        for node in ast.walk(top):
            if (isinstance(node, (ast.Name, ast.Attribute))
                    and isinstance(node.ctx, ast.Load)
                    and id(node) not in calls and id(node) not in skip):
                self.referenced.add(
                    node.id if isinstance(node, ast.Name) else node.attr)

    def _call(self, node, forwarded, aliases):
        def source(value):
            return (forwarded.get(value.id)
                    if isinstance(value, ast.Name) else None)

        func = node.func
        if (getattr(func, "id", None) == "getattr" and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)):
            self.referenced.add(node.args[1].value)
        if (getattr(func, "attr", None) in _MUTATORS
                and isinstance(func.value, ast.Attribute)):
            self.stored.add(func.value.attr)
        for name in aliases.get(_callee_key(node), [_callee(node)]):
            if (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords)):
                self.starred.add(name)
            for i, arg in enumerate(node.args):
                self.sources.setdefault((name, i), set()).add(source(arg))
            for k in node.keywords:
                self.sources.setdefault((name, k.arg), set()).add(
                    source(k.value))

    def sets(self, knob, unset, prefixes, callees):
        """Whether ``knob`` is set by a use of any name in ``callees``,
        counting a value forwarded from a knob in ``unset`` as not
        setting it."""
        def passed(callee, slot):
            return any(s is None or s not in unset
                       for s in self.sources.get((callee, slot), ()))

        if knob.field and (passed("replace", knob.name) or (
                not knob.frozen and knob.name in self.stored)):
            return True
        return any(
            callee in self.starred or callee in self.referenced
            or callee.startswith(prefixes)
            or passed(callee, knob.name)
            or (knob.position is not None and passed(callee, knob.position))
            for callee in callees)


def unset_knobs(reached, reached_code, prefixes):
    """Step 3: the knobs of ``reached`` that ``reached_code`` (pairs of
    enclosing definition and node) never sets."""
    settings = _Settings(reached_code)
    heirs = _heirs(reached)
    knobs = [k for d in reached for k in _knobs_of(d)]
    unset, grown = set(), True
    while grown:  # a knob forwarded only from unset knobs is unset too
        now = {k.key for k in knobs if not settings.sets(
            k, unset, prefixes, heirs.get(k.callee, [k.callee]))}
        grown, unset = now != unset, now
    found = [k for k in knobs if k.key in unset]
    found.sort(key=lambda k: (k.path, k.definition.node.lineno, k.label))
    return found


def survivor_of(definition):
    """The ``SURVIVORS`` key that names ``definition``, or ``None``."""
    for key in (definition.key, definition.path):
        if key in SURVIVORS:
            return key
    return None


def main():
    unreached_mods, unreached, knobs = walk(ROOT)
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
    unnamed = [k for k in knobs if k.key not in KNOB_SURVIVORS]
    print(f"knobs only tests set: {len(unnamed)}")
    for k in unnamed:
        print(f"  {k.key}")
    named = [k for k in knobs if k.key in KNOB_SURVIVORS]
    print(f"named knob survivors: {len(named)}")
    for k in named:
        print(f"  {k.key}: {KNOB_SURVIVORS[k.key]}")


if __name__ == "__main__":
    main()
