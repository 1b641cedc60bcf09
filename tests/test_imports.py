"""Every module of the package uses each name its imports bind, and the
package uses each constant and private function it defines.

No linter is a dependency, so this parses each module with ast: a name an
import binds (the first component of a plain dotted import, the alias if
there is one) must appear as a name somewhere in the module. `__future__`
imports bind none, and a name listed in `__all__` counts as used, which
is how `__init__.py` re-exports. A module-level UPPER_CASE constant or
private `_function` must be read, as a name or an attribute, or imported
somewhere in the package, so a helper only the tests call is caught.
Neither check is scope-aware: a name used anywhere counts.
"""

import ast
import pathlib
import re

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "graphdisc"


def imported_names(tree: ast.Module):
    """(name, line) of every name an import in the module binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree: ast.Module) -> set[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            names.update(ast.literal_eval(node.value))
    return names


def defined_names(tree: ast.Module):
    """(name, line) of every UPPER_CASE constant and private function
    defined at the module's top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith("_") and not node.name.startswith("__"):
                yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", name.id):
                        yield name.id, node.lineno


def referenced_names(trees) -> set[str]:
    """Every name the modules read or import, and every attribute they read."""
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = [f"{path.name}:{line}: {name}" for name, line in imported_names(tree)
              if name not in used]
    assert unused == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nimport numpy as np\nfrom .errors import ShapeError\n"
                     "__all__ = ['ShapeError']\nnp.zeros(1)\n")
    used = used_names(tree)
    assert [name for name, _ in imported_names(tree) if name not in used] == ["os"]


def test_every_constant_and_private_function_is_used():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    referenced = referenced_names(trees.values())
    unused = [f"{name}:{line}: {defined}" for name, tree in trees.items()
              for defined, line in defined_names(tree) if defined not in referenced]
    assert unused == []


def test_the_check_sees_an_unused_definition():
    one = ast.parse("LIMIT = 3\nUNUSED, USED = 1, 2\nTABLE: dict = {}\n"
                    "def _helper():\n    return LIMIT\ndef _orphan():\n    return 0\n"
                    "def public():\n    return 0\n")
    two = ast.parse("from .one import _helper\nimport one\nprint(one.USED, _helper())\n"
                    "TABLE = 1\n")
    referenced = referenced_names([one, two])
    assert [name for name, _ in defined_names(one) if name not in referenced] == [
        "UNUSED", "TABLE", "_orphan"]
