"""Every name in a module's ``__all__`` resolves, so a deleted helper cannot
leave a stale export behind, and no module-level import, private helper or
public name goes unused, so a refactor cannot leave one behind either."""

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


def _exported(tree):
    """The names in a module's ``__all__``."""
    return [
        elt.value
        for node in tree.body if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for elt in node.value.elts
    ]


@pytest.mark.parametrize("name", sorted(set(TREES) - {"__init__"}))  # the package imports to re-export
def test_no_module_level_import_is_unused(name):
    # a name in __all__ counts as used, as does an import marked "noqa: F401"
    tree, lines = TREES[name], SOURCES[name].splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | set(_exported(tree))
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


DEMO_TREES = [ast.parse(path.read_text()) for path in (Path(__file__).resolve().parents[1] / "demos").glob("*.py")]

# Public names that no other module, the package's re-exports, the CLI or a demo reaches, each
# with the reason it stays; the guard fails on a new such name and on an entry that is reached.
UNREACHED_PUBLIC_NAMES = {
    "autodiff.sub": "traced by perfbench until ROADMAP item 1",
    "autodiff.transpose": "traced by perfbench until ROADMAP item 1",
    "autodiff.concat": "traced by perfbench until ROADMAP item 1",
    "autodiff.reduce_sum": "traced by perfbench until ROADMAP item 1; the tests' losses sum with it",
    "autodiff.softmax": "the probabilities behind softmax_cross_entropy, for callers of the logits",
    "cli.main": "CLI entry point (pyproject [project.scripts])",
    "cli.read_arc_list": "the CLI's arc-list reader, tested on its own",
    "cli.manifest_argv": "the argv a manifest replays, read by the replay tests",
    "laplacian.NodeSignal": "the signal type of apply_laplacian",
    "laplacian.incidence_maps": "the sheaf-against-hypergraph check that every builder runs",
    "laplacian.parse_dense_matrix": "reader of build-laplacian's dense output, for diffing against oracles",
    "model.diffusion_layer": "one layer as a standalone operator (README); test oracle of the model",
    "model.accuracy": "the metric train reports, for scoring logits from forward",
    "reference.REFERENCE_KINDS": "the operator kinds reference_laplacian accepts",
    "spectral.hermitian_defect": "the defect the suite checks, for any dense matrix",
    "spectral.SpectralCheckReport": "the return type of verify_spectral_suite",
    "spectral.parse_instance": "replays a serialized failing instance (README)",
    "theorems.TheoremResult": "the return type of every theorem check",
    "theorems.check_sheaf_graph_reduction": "one theorem check run alone; theorem-check runs them all",
    "theorems.check_magnetic_reduction": "one theorem check run alone; theorem-check runs them all",
    "theorems.check_zhou_reduction": "one theorem check run alone; theorem-check runs them all",
    "theorems.check_gedi_reduction": "one theorem check run alone; theorem-check runs them all",
    "theorems.counterexample_hypergraph": "the published counterexample, test oracle of criterion 1",
    "theorems.COUNTEREXAMPLE_MATRIX": "the published counterexample, test oracle of criterion 1",
}


def _reached(tree):
    """``(module, name)`` for every name a file imports from a package module or reads off one
    bound by ``from . import module`` (or ``from hypersheaf import module``)."""
    pairs, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "hypersheaf"):
            base = (node.module or "") if node.level else node.module.removeprefix("hypersheaf").lstrip(".")
            for alias in node.names:
                if base:
                    pairs.add((base, alias.name))
                else:
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
            pairs.add((modules[node.value.id], node.attr))
    return pairs


def test_every_public_name_is_reached_or_listed_with_a_reason():
    reached = set().union(*map(_reached, [*TREES.values(), *DEMO_TREES]))
    unreached = {
        f"{name}.{attr}" for name, tree in TREES.items() if name != "__init__"
        for attr in _exported(tree) if (name, attr) not in reached
    }
    assert sorted(unreached - UNREACHED_PUBLIC_NAMES.keys()) == []  # reach it, delete it or list it
    assert sorted(UNREACHED_PUBLIC_NAMES.keys() - unreached) == []  # reached or gone: drop the entry
