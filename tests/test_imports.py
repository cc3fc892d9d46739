"""Static checks on the imports of the modules under src/qortho."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qortho"
MODULES = sorted(SRC.glob("*.py"))


def _imported_names(tree: ast.Module) -> dict:
    """{name bound by an import: line}, __future__ imports left out."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported_names(tree: ast.Module) -> set:
    """The names a module lists in __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_imported_name_is_used(path):
    # a name counts as used when the module reads it anywhere or re-exports
    # it through __all__
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported and never used: {unused}"


def test_series_summation_stays_in_qseries():
    # every basic hypergeometric series goes through qseries._phi_series,
    # so the polynomial routes need neither the sum loop nor its guard
    tree = ast.parse((SRC / "polynomials.py").read_text())
    assert not {"_series_sum", "_escalated"} & set(_imported_names(tree))
