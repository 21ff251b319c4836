"""Every name a module of the package imports is read in that module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ergopt"
# `__init__.py` imports names to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """The names the module's imports bind, with the line of each; `import
    a.b` binds a, and `from __future__` binds nothing."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def read_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_dead_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = read_names(tree)
    dead = {name: line for name, line in imported_names(tree).items() if name not in read}
    assert not dead, f"{path.name} imports names it never reads: {dead}"


def test_the_check_sees_a_dead_import():
    tree = ast.parse("import math\nfrom .shift import Word, word_to_str\nprint(math.pi, Word)\n")
    assert imported_names(tree).keys() - read_names(tree) == {"word_to_str"}
