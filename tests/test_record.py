"""The frozen value classes: equality, hashing, immutability, pickling, repr."""

import pickle

import pytest

from stackycoh.catalog import catalog_fan
from stackycoh.cli import RunConfig, _config, _parse_canonical
from stackycoh.cohomline import ForbiddenCone, Limits, _delta_table, _DeltaRow, forbidden_cone
from stackycoh.fan import RayNeighborhood, StackyFan, neighborhood
from stackycoh.picard import LineBundleClass, PicStructure, class_of, pic_structure
from stackycoh.plsearch import CriterionReport, PLFunction, criterion_report, pl_function
from stackycoh.record import Record


# (class, an instance, its field names in order) for every public value class
VALUES = [
    (RunConfig, lambda: _config(_parse_canonical(["scan", "@p2", "--box=-1:1", "--cap=7"])),
     ("command", "fan_source", "fmt", "limits", "threads", "coeffs", "box", "r_range")),
    (Limits, lambda: Limits(cap=7, delta_cap=9), ("cap", "delta_cap")),
    (ForbiddenCone, lambda: forbidden_cone(catalog_fan("p2"), (3, 0, 0)), ("index_set", "witness")),
    (StackyFan, lambda: catalog_fan("p1_22"), ("rank", "rays", "max_cones")),
    (RayNeighborhood, lambda: neighborhood(catalog_fan("p3"), 1), ("center", "members", "cycle")),
    (PicStructure, lambda: pic_structure(catalog_fan("p1_22")), ("free_rank", "torsion", "u", "u_inv")),
    (LineBundleClass, lambda: class_of(catalog_fan("p1_22"), (1, 0)), ("raw", "free", "torsion")),
    (PLFunction, lambda: pl_function((1, 0, 2)), ("values",)),
    (CriterionReport, lambda: criterion_report(catalog_fan("p1xp1"), (-1, 1), (-1, 1)),
     ("collinear_pair_count", "degenerate_psi", "statement3_witness", "sampled_family_checks", "verdict")),
]


@pytest.mark.parametrize("cls,make,names", VALUES, ids=[v[0].__name__ for v in VALUES])
def test_value_class(cls, make, names):
    obj = make()
    assert type(obj) is cls
    values = tuple(getattr(obj, name) for name in names)
    twin = cls(**dict(zip(names, values)))
    assert twin == obj and twin is not obj and hash(twin) == hash(obj)
    assert obj != values
    # a class with the same fields and field values is still another class
    other = type("Other", (cls,), {})(**dict(zip(names, values)))
    assert obj != other and other != obj
    assert hash(obj) == hash(values)
    with pytest.raises(AttributeError):
        setattr(obj, names[0], values[0])
    with pytest.raises(AttributeError):
        delattr(obj, names[-1])
    assert getattr(obj, names[-1]) == values[-1]
    loaded = pickle.loads(pickle.dumps(obj))
    assert loaded == obj and hash(loaded) == hash(obj)
    text = repr(obj)
    assert text.startswith(f"{cls.__name__}(")
    assert all(f"{name}=" in text for name in names)


def test_delta_row_ignores_its_fan():
    # the fan is kept for the tower, but two rows of equal fields are equal
    row = _delta_table(catalog_fan("p2")).rows[0]
    fields = (row.index_set, row.betti, row.sign, row.conforming)
    twin = _DeltaRow(*fields, catalog_fan("p1xp1"))
    assert twin == row and hash(twin) == hash(fields)
    assert "fan=" not in repr(row)


class _Point(Record):
    x: int
    y: int


class _Point3(_Point):
    z: int


@pytest.mark.parametrize("args,kwargs", [
    ((1,), {}), ((1, 2, 3), {}), ((1, 2), {"x": 1}), ((1,), {"z": 2}), ((), {"x": 1, "y": 2, "z": 3}),
], ids=["missing", "too_many", "repeated", "unknown", "unknown_keyword"])
def test_fields_are_checked(args, kwargs):
    with pytest.raises(TypeError, match="^_Point takes the fields x, y$"):
        _Point(*args, **kwargs)


def test_subclass_fields_follow_the_base():
    p = _Point3(1, 2, z=3)
    assert repr(p) == "_Point3(x=1, y=2, z=3)" and hash(p) == hash((1, 2, 3))
    assert p != _Point(1, 2)
