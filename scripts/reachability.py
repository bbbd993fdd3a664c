#!/usr/bin/env python3
"""Which ``src/`` modules does no command, script, e2e benchmark or
example import?  ``make surface`` prints this: a number to quote, no gate.

An ``ast`` import walk from ``src/repro/cli.py``, ``scripts/``,
``benchmarks/e2e/`` and ``examples/`` (absolute imports: ``src/`` has no
others).  A package ``__init__``'s re-exports resolve to the module that
defines the name and are not themselves uses, so a module that only its
package's ``__init__`` and its own tests import is listed.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = {
    ".".join(p.relative_to(SRC).with_suffix("").parts)
    .removesuffix(".__init__"): p
    for p in SRC.rglob("*.py")
}


def imports(path):
    """``(module, name)`` per import; ``name`` is ``None`` for ``import m``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield from ((node.module, alias.name) for alias in node.names)


def defining_module(module, name):
    """The ``src/`` module ``from module import name`` really reaches."""
    if f"{module}.{name}" in MODULES:
        return f"{module}.{name}"
    path = MODULES.get(module)
    if path is not None and name and path.name == "__init__.py":
        for base, exported in imports(path):
            if exported == name:
                return defining_module(base, name)
    return module if path is not None else None


reached = {"repro.cli"}
todo = [MODULES["repro.cli"]]
for root in ("scripts", "benchmarks/e2e", "examples"):
    todo += (ROOT / root).glob("*.py")
while todo:
    for found in (defining_module(*imp) for imp in imports(todo.pop())):
        if found is not None and found not in reached:
            reached.add(found)
            if MODULES[found].name != "__init__.py":  # re-exports only
                todo.append(MODULES[found])
unreached = sorted(
    str(path.relative_to(ROOT)) for module, path in MODULES.items()
    if module not in reached and not path.name.startswith("__")
)
print("src modules no command, script, e2e benchmark or example imports:",
      len(unreached), *unreached)
