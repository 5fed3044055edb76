"""Checks on the package source itself."""

import ast
import subprocess
import sys
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


def test_cold_start_leaves_class_factories_out():
    # every CLI call pays for its imports: dataclasses brings inspect, ast
    # and dis, fractions brings decimal, and hashlib maps OpenSSL through
    # _hashlib, so a fresh start leaves them out (-S keeps the modules that
    # site preloads out of the check)
    heavy = ("dataclasses", "inspect", "fractions", "decimal", "hashlib", "_hashlib")
    probe = f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import stackycoh.cli; " \
        f"print([m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_class_factories(path):
    # value classes derive from record.Record, written once, instead of a
    # factory that builds each class at import time
    found = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom)
        and (node.module == "dataclasses" or any(a.name == "NamedTuple" for a in node.names))
    ]
    assert found == [], f"{path.name} imports dataclasses or NamedTuple on lines {found}"


# bench/record.py imports box_classes from cohomline, which decides its
# scan box in canonical coordinates and no longer reads it
REEXPORTS = {"cohomline": {"box_classes"}}


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_imports(path):
    # __init__.py imports to re-export; every other module reads what it
    # imports, except the names in REEXPORTS
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
    reexported = REEXPORTS.get(path.stem, set())
    assert reexported <= imported - read, f"{path.name} no longer needs its REEXPORTS entry"
    assert sorted(imported - read - reexported) == [], f"{path.name} never reads these imports"



def _public_names(tree):
    """Public names bound at the top level of a module by def, class or assignment."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if not n.startswith("_")]


def _is_property(node):
    """Whether a def in a class body is decorated as a property."""
    return any(
        getattr(d, "id", getattr(d, "attr", None)) in ("property", "cached_property")
        for d in node.decorator_list
    )


def _script_entry_points():
    """(module, name) of each console script the project declares."""
    # tomllib is new in Python 3.11, and the project admits 3.10
    tomllib = pytest.importorskip("tomllib")
    pyproject = PACKAGE.parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text()).get("project", {}).get("scripts", {})
    return {tuple(target.split(":")) for target in scripts.values()}


def test_every_public_name_is_used_or_exported():
    # a public name that nothing in the package reads and __init__ does not
    # export is a route only tests take: it belongs in tests/oracles.py
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    used = {(f"{PACKAGE.name}.{m}", n) for m, n in _script_entry_points()}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add((f"{PACKAGE.name}.{module}", node.id))
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                used.update((f"{PACKAGE.name}.{node.module}", a.name) for a in node.names)
    unused = [
        f"{module}.{name}"
        for module, tree in trees.items()
        if module != "__init__"
        for name in _public_names(tree)
        if (f"{PACKAGE.name}.{module}", name) not in used
    ]
    # a property is read as an attribute and a method is called as one;
    # exporting the class does not make them used, and dunder methods are
    # called by Python itself
    read, called = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                called.add(node.func.attr)
    unused += [
        f"{module}.{cls.name}.{node.name}"
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        if node.name not in (read if _is_property(node) else called)
    ]
    assert unused == [], f"neither read in the package nor exported: {unused}"


def _readers(tree, name):
    """The top-level functions of a module that read name; None for module level."""
    readers = set()
    for node in tree.body:
        owner = node.name if isinstance(node, ast.FunctionDef) else None
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id == name and isinstance(sub.ctx, ast.Load):
                readers.add(owner)
            elif isinstance(sub, ast.Attribute) and sub.attr == name:
                readers.add(owner)
    return readers


def test_one_rank_routine():
    # exactlin.rat_rank is the one rank routine: any other function named
    # for a rank delegates to it, and the dense Gauss-Jordan loop serves
    # only the kernels and the one square solve, whose right-hand side I
    # gives the adjugates and a column the Cramer solves
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    gauss_jordan = {(m, f) for m, tree in trees.items() for f in _readers(tree, "_gauss_jordan")}
    assert gauss_jordan == {("exactlin", "int_kernel"), ("exactlin", "int_solve")}
    others = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and "rank" in node.name
        and (module, node.name) != ("exactlin", "rat_rank")
        and not any(isinstance(n, ast.Name) and n.id == "rat_rank" for n in ast.walk(node))
    ]
    assert others == [], f"rank routines besides exactlin.rat_rank: {others}"


def test_no_private_imports_across_modules():
    # a name that starts with _ stays inside its module; tests may import it
    found = [
        f"{path.stem} imports {node.module}.{alias.name}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == [], f"private names imported across modules: {found}"


def test_table_alone_decides_feasibility_and_boundedness():
    # a tower only walks: cohomline alone builds and walks one, and no
    # module names a bounded flag or reads the constant rows of levels[0]
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    for name in ("build_tower", "tower_points"):
        readers = sorted(m for m, tree in trees.items() if _readers(tree, name))
        assert readers == ["cohomline"], f"{name} read by {readers}"
    found = [
        f"{module}:{node.lineno}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if "bounded" in {getattr(node, a, None) for a in ("name", "id", "attr", "arg")}
        or isinstance(node, ast.Subscript)
        and getattr(node.value, "id", getattr(node.value, "attr", None)) == "levels"
        and getattr(node.slice, "value", None) == 0
    ]
    assert found == [], f"bounded or levels[0] at {found}"


def _calls(tree):
    """For each top-level function of a module, the top-level functions it reads."""
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    return {
        name: {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and n.id in functions}
        for name, node in functions.items()
    }


def _reachable(calls, start):
    seen, todo = set(), [start]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo += calls.get(name, ())
    return seen


def test_one_flag_loop():
    # a unit row is answered without a walk in one place: only the flag
    # loop of cohomline reads a row's unit flag, only _DeltaRow reads the
    # predicate, and the box route reaches that loop
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    tree = trees["cohomline"]
    assert _readers(tree, "unit") == {"h_trivial_flags"}
    readers = {m: _readers(t, "unit_pivots") for m, t in trees.items() if _readers(t, "unit_pivots")}
    assert readers == {"cohomline": {None}}
    owners = [
        node.name for node in tree.body
        if isinstance(node, ast.ClassDef)
        and any(isinstance(n, ast.Name) and n.id == "unit_pivots" for n in ast.walk(node))
    ]
    assert owners == ["_DeltaRow"]
    # every loop over the feasible rows of a class: counts, witnesses,
    # interiors and the one flag loop; a second flag loop would be a fifth
    loops = _readers(tree, "_feasible")
    assert loops == {"cohomology", "forbidden_cone", "first_outside_interiors", "h_trivial_flags"}
    assert "h_trivial_flags" in _reachable(_calls(tree), "scan_h_trivial")


def test_batch_rows_serve_the_flag_loop_alone():
    # the bit-parallel rows decide a batch for h_trivial_flags alone: the
    # counts, the witnesses and the interiors still decide each class
    # through _feasible, and none of them reaches the batch route
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    readers = {m: _readers(t, "_batch_flags") for m, t in trees.items() if _readers(t, "_batch_flags")}
    assert readers == {"cohomline": {"h_trivial_flags"}}
    calls = _calls(trees["cohomline"])
    for name in ("cohomology", "forbidden_cone", "first_outside_interiors"):
        assert "_feasible" in calls[name]
        assert "_batch_flags" not in _reachable(calls, name)


def test_one_box_enumeration():
    # picard.box_points alone enumerates a box: every other route reads its
    # canonical points, so no other function reads itertools.product
    readers = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        aliases = {
            a.asname or a.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "itertools"
            for a in node.names
            if a.name == "product"
        }
        for node in tree.body:
            owner = getattr(node, "name", None)
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Name) and sub.id in aliases and isinstance(sub.ctx, ast.Load)
                    or isinstance(sub, ast.Attribute) and sub.attr == "product"
                    and getattr(sub.value, "id", None) == "itertools"
                ):
                    readers.add((path.stem, owner))
    assert readers == {("picard", "box_points")}


def _solves_per_cone(tree):
    """The top-level functions that call int_solve inside a loop or comprehension over max_cones."""
    def names(node):
        return {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node)}

    owners = set()
    for node in tree.body:
        for loop in ast.walk(node):
            iters = [loop.iter] if isinstance(loop, ast.For) else [g.iter for g in getattr(loop, "generators", ())]
            if any("max_cones" in names(it) for it in iters) and "int_solve" in names(loop):
                owners.add(node.name)
    return owners


def test_one_relation_set():
    # the circuits of cohomline are the one copy of the rays' relations: the
    # Delta table and the rows of plsearch read them, and apart from the
    # validation of a fan no route solves a linear system per maximal cone
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    readers = {
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(n, ast.Name) and n.id == "circuits" and isinstance(n.ctx, ast.Load) for n in ast.walk(node))
    }
    assert readers == {("cohomline", "_delta_table"), ("plsearch", "_rows")}
    solves = {(module, name) for module, tree in trees.items() for name in _solves_per_cone(tree)}
    assert solves == {("fan", "validate")}


def test_one_row_table():
    # plsearch reads its rows from one table per fan: _rows takes the fan
    # alone, and degenerate_space alone solves for the kernel at a ray
    tree = ast.parse((PACKAGE / "plsearch.py").read_text())
    assert _readers(tree, "int_kernel") == {"degenerate_space"}
    (rows,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_rows"]
    assert ast.unparse(rows.args) == "fan: StackyFan"


def test_one_json_format():
    # fan.canonical_json is the package's one JSON format: no other module
    # serializes with json.dumps or builds a JSONEncoder of its own
    writers = ("dumps", "JSONEncoder")
    found = [
        f"{path.stem}:{node.lineno}"
        for path in MODULES
        if path.name != "fan.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in writers
        or isinstance(node, ast.ImportFrom) and node.module == "json" and any(a.name in writers for a in node.names)
    ]
    assert found == [], f"JSON written outside fan: {found}"
