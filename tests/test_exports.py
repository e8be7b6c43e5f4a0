"""Every name in a module's ``__all__`` resolves, so a deleted helper cannot
leave a stale export behind, and no module-level import or private helper
goes unused, so a refactor cannot leave one behind either."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import hypersheaf

MODULES = sorted(m.name for m in pkgutil.iter_modules(hypersheaf.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"hypersheaf.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


SOURCES = {path.stem: path.read_text() for path in Path(hypersheaf.__file__).parent.glob("*.py")}
TREES = {name: ast.parse(text) for name, text in SOURCES.items()}


def _used_names(tree):
    """Every name a module reads, every attribute it takes and every name it imports from a module."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


@pytest.mark.parametrize("name", sorted(set(TREES) - {"__init__"}))  # the package imports to re-export
def test_no_module_level_import_is_unused(name):
    # a name in __all__ counts as used, as does an import marked "noqa: F401"
    tree, lines = TREES[name], SOURCES[name].splitlines()
    exported = {
        elt.value
        for node in tree.body if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for elt in node.value.elts
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | exported
    unused = [
        bound
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        and "# noqa: F401" not in lines[node.end_lineno - 1]
        for bound in (alias.asname or alias.name.split(".")[0] for alias in node.names)
        if bound not in read
    ]
    assert unused == []


def test_no_private_module_level_helper_is_unreferenced():
    used = set().union(*map(_used_names, TREES.values()))
    unreferenced = [
        f"{name}.{node.name}"
        for name, tree in TREES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_") and node.name not in used
    ]
    assert unreferenced == []
