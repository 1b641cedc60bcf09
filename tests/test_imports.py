"""Every module of the package uses each name its imports bind.

No linter is a dependency, so this parses each module with ast: a name an
import binds (the first component of a plain dotted import, the alias if
there is one) must appear as a name somewhere in the module. `__future__`
imports bind none, and a name listed in `__all__` counts as used, which
is how `__init__.py` re-exports. The check is not scope-aware: a name
used anywhere in the module counts.
"""

import ast
import pathlib

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
