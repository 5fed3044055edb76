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


def _fraction_helpers():
    """Top-level names of exactlin that use Fraction, directly or through
    another such name."""
    tree = ast.parse((PACKAGE / "exactlin.py").read_text())
    uses = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        used = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        uses.update((name, used) for name in names)
    helpers = {"Fraction"}
    while True:
        more = {name for name, used in uses.items() if used & helpers} - helpers
        if not more:
            return helpers
        helpers |= more


def test_fraction_helpers_are_found():
    helpers = _fraction_helpers()
    assert {"rref", "rational_kernel", "rat_vector", "RatVector", "feasible"} <= helpers
    assert not {"int_adjugate", "smith_normal_form", "IntMatrix"} & helpers


@pytest.mark.parametrize("name", ["fan.py", "picard.py"])
def test_no_fractions_on_the_cold_path(name):
    # every fan is validated and most commands read its class group, so
    # these two modules stay in integers
    helpers = _fraction_helpers()
    found = []
    for node in ast.walk(ast.parse((PACKAGE / name).read_text())):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "fractions"]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "fractions":
                found.append("fractions")
            elif (node.module or "").split(".")[-1] == "exactlin":
                found += [a.name for a in node.names if a.name in helpers]
        elif isinstance(node, ast.Attribute) and node.attr in helpers:
            found.append(node.attr)
        elif isinstance(node, ast.Name) and node.id == "Fraction":
            found.append("Fraction")
    assert found == [], f"{name} uses {found}"
