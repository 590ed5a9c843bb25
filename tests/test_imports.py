"""Every module of the package imports on the installed numpy, and uses
every name it imports.

An import-time failure in a module with no test module of its own would
otherwise surface only as a collection error of some other test module; this
check names the module that broke.  An import left behind when its last use
is deleted is named the same way.
"""

import ast
import importlib
from pathlib import Path

import pytest

import qmkdv

MODULES = [
    "spectral_core",
    "littlewood_paley",
    "model",
    "integrator",
    "diagnostics",
    "oscillatory",
    "rng",
    "identities",
    "cli",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    importlib.import_module(f"qmkdv.{name}")


def _unused_imports(tree: ast.Module) -> list:
    """The names a module imports and never reads; a name listed in its
    ``__all__`` counts as read."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", sorted(Path(qmkdv.__file__).parent.glob("*.py")), ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []
