"""Every module-level function and class of ``rumorgraph`` has a library caller.

A name counts as used when a module of ``rumorgraph`` reads it outside any
``def`` or ``class`` of the same name: as a plain name that no enclosing
function, lambda or comprehension binds for itself (a call, a type, a base
class, an annotation, ``set_defaults(func=...)``), as an attribute of a
package module it imported (``nc.<name>``), or by importing it by name from
the package with a relative import. Assignment targets, fields, parameters
and loop variables are no reference. ``numcore``'s ``__init__`` re-exports
every name of ``numcore``, so it counts for none. Ops and helpers that only
tests use live in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

import pytest

from rumorgraph import numcore as nc

LIBRARY = Path(nc.__file__).resolve().parent.parent
REEXPORTS = LIBRARY / "numcore" / "__init__.py"
MODULES = sorted(LIBRARY.rglob("*.py"))

COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _own_nodes(scope):
    """The nodes of ``scope``, leaving out the insides of the scopes nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, FUNCTIONS + COMPREHENSIONS + (ast.ClassDef,)):
            stack.extend(ast.iter_child_nodes(node))


def _locals(scope) -> set[str]:
    """Names a function, lambda or comprehension binds for itself."""
    bound, declared = set(), set()
    if isinstance(scope, FUNCTIONS):
        args = scope.args
        bound |= {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg] if a}
    for node in _own_nodes(scope):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, DEFINITIONS):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared |= set(node.names)
    return bound - declared


class _References(ast.NodeVisitor):
    """Names one module refers to, each outside any ``def`` or ``class`` of that name."""

    def __init__(self):
        self.enclosing: list[str] = []
        self.scopes: list[set[str]] = []  # locals of the functions and comprehensions being visited
        self.modules: set[str] = set()  # local names bound to package modules
        self.names: set[str] = set()

    def _add(self, name: str) -> None:
        if name not in self.enclosing:
            self.names.add(name)

    def _visit_scope(self, node):
        self.scopes.append(_locals(node))
        self.generic_visit(node)
        self.scopes.pop()

    visit_Lambda = visit_ListComp = visit_SetComp = visit_DictComp = visit_GeneratorExp = _visit_scope

    def visit_FunctionDef(self, node):
        self.enclosing.append(node.name)
        self._visit_scope(node)
        self.enclosing.pop()

    def visit_ClassDef(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    def visit_ImportFrom(self, node):
        if node.level:
            for alias in node.names:
                if node.module is None:
                    self.modules.add(alias.asname or alias.name)
                else:
                    self._add(alias.name)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and not any(node.id in scope for scope in self.scopes):
            self._add(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.value, ast.Name) and node.value.id in self.modules:
            self._add(node.attr)
        self.generic_visit(node)


def _references(source: str) -> set[str]:
    refs = _References()
    refs.visit(ast.parse(source))
    return refs.names


def _library_references() -> set[str]:
    used = set()
    for path in MODULES:
        if path != REEXPORTS:
            used |= _references(path.read_text(encoding="utf-8"))
    return used


def test_every_numcore_export_has_a_library_caller():
    unused = sorted(set(nc.__all__) - _library_references())
    assert not unused, f"exported by rumorgraph.numcore but used by no library module: {unused}"


def test_every_module_level_definition_has_a_library_caller():
    used = _library_references()
    unused = []
    for path in MODULES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used:
                unused.append(f"{path.relative_to(LIBRARY)}:{node.name}")
    assert not unused, f"defined in rumorgraph but used by no library module: {unused}"


@pytest.mark.parametrize(
    "source",
    [
        "precision = 1",
        "class Config:\n    precision: str = 'f64'",
        "def run(precision):\n    return precision",
        "def run(*, precision=None):\n    return [precision for _ in range(2)]",
        "def run():\n    precision = 1\n    return precision",
        "def run(xs):\n    for precision in xs:\n        print(precision)",
        "def run():\n    try:\n        pass\n    except ValueError as precision:\n        raise precision",
        "def run(precision):\n    def inner():\n        return precision\n    return inner",
        "key = lambda precision: precision",
        "total = sum(precision for precision in range(3))",
        "def precision():\n    return precision()",
    ],
    ids=[
        "module-assignment",
        "class-field",
        "parameter",
        "keyword-parameter-in-comprehension",
        "local",
        "loop-variable",
        "exception-name",
        "closure-over-parameter",
        "lambda-parameter",
        "comprehension-variable",
        "own-def",
    ],
)
def test_a_bound_or_stored_name_is_no_reference(source):
    assert "precision" not in _references(source)


@pytest.mark.parametrize(
    "source",
    [
        "with precision('f32'):\n    pass",
        "def run():\n    with precision('f32'):\n        pass",
        "from . import numcore as nc\ndef run():\n    with nc.precision('f32'):\n        pass",
        "from .numcore import precision",
        "parser.set_defaults(func=precision)",
        "def run(x: precision) -> precision:\n    return x",
        "class Config(precision):\n    pass",
        "def run():\n    global precision\n    precision = 1\n    return precision",
        "def run(xs):\n    return [precision(x) for x in xs]",
    ],
    ids=[
        "module-call",
        "call-in-function",
        "package-module-attribute",
        "relative-import",
        "set-defaults",
        "annotations",
        "base-class",
        "declared-global",
        "call-in-comprehension",
    ],
)
def test_a_read_of_a_free_name_is_a_reference(source):
    assert "precision" in _references(source)
