"""Fans built from the catalog: products and stellar subdivisions.

A product of two complete simplicial fans is complete and simplicial,
and so is a stellar subdivision at a point interior to a maximal cone,
so every fan built here must validate. assert_matches_exhaustive checks
the Delta of such a fan against the exhaustive oracle. complete_fans
lists the catalog, the products and the fans under bench/fans.
"""

from pathlib import Path

import pytest

from oracles import exhaustive_delta
from stackycoh.catalog import catalog_fan, catalog_names
from stackycoh.fan import load_fan, make_fan
from stackycoh.homology import delta_set

# products of catalog fans, by factor names
PRODUCTS = {
    4: [
        ("p1", "p3"),
        ("p2", "p2"),
        ("p1", "p1xp1xp1"),
        ("p1xp1", "p2_211"),
        ("hirzebruch1", "p2"),
        ("cyclic5", "p1xp1"),
        ("p1_21", "blp3_123"),
        ("p1", "tilted_bipyramid"),
    ],
    5: [
        ("p2", "p1xp2"),
        ("p1xp1", "p3"),
        ("p1xp1", "p1xp1xp1"),
        ("p2_221", "blp3_center"),
    ],
    6: [
        ("p3", "p3"),
        ("p1xp2", "p3"),
    ],
}


def product_fan(left, right):
    """The product fan: rays (v, 0) and (0, w), cones sigma x tau."""
    rays = [tuple(v) + (0,) * right.rank for v in left.rays]
    rays += [(0,) * left.rank + tuple(w) for w in right.rays]
    cones = [
        sorted(s) + [left.nrays + j for j in sorted(t)]
        for s in left.max_cones
        for t in right.max_cones
    ]
    return make_fan(left.rank + right.rank, rays, cones)


def named_product(names):
    return product_fan(catalog_fan(names[0]), catalog_fan(names[1]))


def stellar(fan, cone, weights=None):
    """Subdivide a maximal cone at sum_i weights_i v_i (all weights 1 by default).

    With positive weights the new ray is interior to the cone.
    """
    members = sorted(cone)
    weights = weights or [1] * len(members)
    w = tuple(
        sum(c * x for c, x in zip(weights, xs))
        for xs in zip(*(fan.ray(i) for i in members))
    )
    new = fan.nrays + 1
    cones = [sorted(c) for c in fan.max_cones if c != cone]
    cones += [sorted(cone - {i} | {new}) for i in members]
    return make_fan(fan.rank, list(fan.rays) + [w], cones)


BENCH_FANS = Path(__file__).resolve().parent.parent / "bench" / "fans"


def catalog_and_products():
    """Catalog fans and the products of them."""
    out = [pytest.param(catalog_fan(n), id=n) for n in catalog_names()]
    for rank in sorted(PRODUCTS):
        out += [pytest.param(named_product(n), id="x".join(n)) for n in PRODUCTS[rank]]
    return out


def complete_fans():
    """Catalog fans, their products, and the fans under bench/fans."""
    return catalog_and_products() + [
        pytest.param(load_fan(path.read_text()), id=f"bench-{path.stem}")
        for path in sorted(BENCH_FANS.glob("*.json"))
    ]


def assert_matches_exhaustive(fan):
    """Delta equals the exhaustive oracle, with int Betti entries."""
    fam = delta_set(fan)
    assert fam == exhaustive_delta(fan)
    assert all(type(x) is int for _, betti in fam for x in betti)
