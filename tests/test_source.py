"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

import stackycoh

PACKAGE = Path(stackycoh.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert statements, so invariants raise explicitly
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} asserts on lines {lines}"


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "plsearch.py"], ids=lambda p: p.name
)
def test_no_fractions_on_the_cold_path(path):
    # the linear algebra is integer throughout; only plsearch's PL values
    # are rational, and only plsearch reads a numerator or a denominator
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "fractions"]
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "fractions":
                found.append("fractions")
            found += [a.name for a in node.names if a.name == "Fraction"]
        elif isinstance(node, ast.Attribute) and node.attr in ("Fraction", "numerator", "denominator"):
            found.append(node.attr)
        elif isinstance(node, ast.Name) and node.id == "Fraction":
            found.append("Fraction")
    assert found == [], f"{path.name} uses {found}"


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_imports(path):
    # __init__.py imports to re-export; every other module reads what it imports
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert sorted(imported - read) == [], f"{path.name} never reads these imports"
