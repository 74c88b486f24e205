"""``rumorgraph.numcore`` exports only what library code uses.

A name counts as used when a module of ``rumorgraph`` refers to it as
``nc.<name>``, imports it by name from ``numcore`` or ``numcore.tensor``, or,
inside ``numcore``, calls it outside its own ``def``. The package's
``__init__`` re-exports every name, so it counts for none. Ops that only
tests use live in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

from rumorgraph import numcore as nc

NUMCORE = Path(nc.__file__).resolve().parent
LIBRARY = NUMCORE.parent


class _Calls(ast.NodeVisitor):
    """Names called as plain functions, except inside a ``def`` of the same name."""

    def __init__(self):
        self.enclosing: list[str] = []
        self.names: set[str] = set()

    def visit_FunctionDef(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and node.func.id not in self.enclosing:
            self.names.add(node.func.id)
        self.generic_visit(node)


def _used_names(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "nc":
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] in ("numcore", "tensor"):
            used.update(alias.name for alias in node.names)
    if path.parent == NUMCORE:
        calls = _Calls()
        calls.visit(tree)
        used |= calls.names
    return used


def test_every_numcore_export_has_a_library_caller():
    used = set()
    for path in sorted(LIBRARY.rglob("*.py")):
        if path != NUMCORE / "__init__.py":
            used |= _used_names(path)
    unused = sorted(set(nc.__all__) - used)
    assert not unused, f"exported by rumorgraph.numcore but used by no library module: {unused}"
