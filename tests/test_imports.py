"""Every module-level import and private name in the package is read by
its module.

A deletion or a merge can leave an import, or a private helper such as a
``_require_...`` check, behind that nothing reads any more; these tests
parse each module with ``ast`` and name them. ``__init__.py`` is skipped
by the import check: its imports are the package's public names.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "detsing"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    bound = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                bound[alias.asname or alias.name.split(".")[0]] = stmt.lineno
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            for alias in stmt.names:
                bound[alias.asname or alias.name] = stmt.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def unread_private_names(source):
    """(line, name) of each module-level function, class or assigned name
    starting with a single underscore that the module never reads."""
    tree = ast.parse(source)
    defined = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[stmt.name] = stmt.lineno
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defined[target.id] = stmt.lineno
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        (line, name) for name, line in defined.items()
        if name.startswith("_") and not name.startswith("__") and name not in read
    )


def test_finds_an_unused_import():
    source = "import os\nimport sys\nfrom .x import a, b as c\n\nprint(sys.argv, c)\n"
    assert unused_imports(source) == [(1, "os"), (3, "a")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def test_finds_an_unread_private_name():
    source = (
        "_LIMIT = 3\n_SEEN: set = set()\n__all__ = []\n"
        "def _dead(rows):\n    return _LIMIT\n"
        "def _live():\n    return 1\n"
        "class _Gone:\n    pass\n"
        "def public():\n    _SEEN = 2\n    return _live()\n"
    )
    assert unread_private_names(source) == [(2, "_SEEN"), (4, "_dead"), (8, "_Gone")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_private_names_are_read(path):
    assert unread_private_names(path.read_text()) == []
