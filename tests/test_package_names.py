"""The package holds what a command runs: every top-level public function
and class in ``src/bellnet`` is read by code elsewhere in the package, and
every name a module imports is read by that module.  Functions that only
tests call belong in ``tests/oracles.py``."""

import ast
from pathlib import Path

import bellnet

SRC = Path(bellnet.__file__).resolve().parent
MODULES = {
    path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))
}

# Kept although no package code reads them: perfbench reaches them by name.
UNREFERENCED = {
    # no command builds a model table; perfbench/tracer.py's LAYERS wraps it
    # as the classical.model_table span
    ("classical", "model_table"),
    # perfbench/checks.py imports it to check sweep output
    ("inequality", "diagonal_sweep_closed_form"),
}
UNUSED_IMPORTS = {
    # perfbench/tracer.py wraps network_table at every module that binds it
    ("cli", "network_table"),
}
# The package's own imports are its API for ``from bellnet import ...``.
REEXPORTING = "__init__"


def _read_names(node) -> set[str]:
    """Every name and attribute that the code under ``node`` reads; an
    import binds names but reads none."""
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def _unreferenced() -> set[tuple[str, str]]:
    statements = [
        (stmt, _read_names(stmt)) for tree in MODULES.values() for stmt in tree.body
    ]
    found = set()
    for module, tree in MODULES.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            if not any(node.name in names for stmt, names in statements if stmt is not node):
                found.add((module, node.name))
    return found


def _unused_imports() -> set[tuple[str, str]]:
    found = set()
    for module, tree in MODULES.items():
        read = _read_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    found.add((module, name))
    return found


def test_every_public_function_and_class_is_read_in_the_package():
    assert _unreferenced() == UNREFERENCED


def test_every_imported_name_is_read_where_it_is_imported():
    unused = {(module, name) for module, name in _unused_imports() if module != REEXPORTING}
    assert unused == UNUSED_IMPORTS
