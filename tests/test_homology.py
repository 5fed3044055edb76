"""Support complexes, reduced Betti numbers, and the index family."""

import random

import pytest

from fangen import PRODUCTS, assert_matches_exhaustive, named_product
from stackycoh.catalog import catalog_fan, catalog_names
from stackycoh.fan import make_fan
from stackycoh.homology import (
    DeltaCapError,
    complex_CI,
    delta_family,
    delta_set,
    reduced_betti,
    simplicial_complex,
    supp,
)

LOWDIM = [n for n in catalog_names() if catalog_fan(n).rank in (2, 3)]
RANK4_PRODUCTS, RANK5_PRODUCTS = (
    [pytest.param(names, id="x".join(names)) for names in PRODUCTS[rank]]
    for rank in (4, 5)
)


class TestReducedBetti:
    def test_point_is_acyclic(self):
        cx = simplicial_complex([{1}])
        assert reduced_betti(cx, 2) == (0, 0, 0)

    def test_empty_complex_has_degree_minus_one(self):
        cx = simplicial_complex([])
        assert reduced_betti(cx, 2) == (1, 0, 0)

    def test_two_points(self):
        cx = simplicial_complex([{1}, {2}])
        assert reduced_betti(cx, 2) == (0, 1, 0)

    def test_circle(self):
        cx = simplicial_complex([{1, 2}, {2, 3}, {1, 3}])
        assert reduced_betti(cx, 2) == (0, 0, 1)

    def test_filled_triangle(self):
        cx = simplicial_complex([{1, 2, 3}])
        assert reduced_betti(cx, 3) == (0, 0, 0, 0)

    def test_sphere_from_tetrahedron_boundary(self):
        faces = [{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4}]
        cx = simplicial_complex(faces)
        assert reduced_betti(cx, 3) == (0, 0, 0, 1)


class TestSupp:
    def test_all_negative_gives_empty_complex(self):
        fan = catalog_fan("p1xp1")
        cx = supp(fan, (-1, -1, -1, -1))
        assert cx.faces == frozenset({frozenset()})

    def test_two_nonadjacent_rays(self):
        fan = catalog_fan("p1xp1")
        cx = supp(fan, (0, 0, -1, -1))
        assert cx.faces == frozenset(
            {frozenset(), frozenset({1}), frozenset({2})}
        )

    def test_full_support_is_boundary_sphere(self):
        fan = catalog_fan("p2")
        cx = supp(fan, (0, 0, 0))
        assert reduced_betti(cx, 2) == (0, 0, 1)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            supp(catalog_fan("p2"), (0, 0))


class TestComplexCI:
    def test_full_index_set_is_full_support(self):
        fan = catalog_fan("p2")
        assert complex_CI(fan, {1, 2, 3}) == supp(fan, (0, 0, 0))

    def test_empty_index_set(self):
        fan = catalog_fan("p2")
        assert complex_CI(fan, ()).faces == frozenset({frozenset()})

    def test_pair_on_p1xp1(self):
        fan = catalog_fan("p1xp1")
        cx = complex_CI(fan, {1, 2})
        assert cx.vertices == frozenset({1, 2})
        assert reduced_betti(cx, 2) == (0, 1, 0)


class TestDeltaFamily:
    def test_p2(self):
        fam = delta_family(catalog_fan("p2"))
        assert [sorted(I) for I in fam.sets()] == [[], [1, 2, 3]]
        assert fam.betti([]) == (1, 0, 0)
        assert fam.betti([1, 2, 3]) == (0, 0, 1)

    def test_p1xp1(self):
        fam = delta_family(catalog_fan("p1xp1"))
        assert [sorted(I) for I in fam.sets()] == [
            [],
            [1, 2],
            [3, 4],
            [1, 2, 3, 4],
        ]
        assert fam.betti([1, 2]) == (0, 1, 0)

    def test_p1xp2(self):
        fam = delta_family(catalog_fan("p1xp2"))
        assert [sorted(I) for I in fam.sets()] == [
            [],
            [1, 2],
            [3, 4, 5],
            [1, 2, 3, 4, 5],
        ]
        assert fam.betti([3, 4, 5]) == (0, 0, 1, 0)

    def test_cyclic5_membership(self):
        fam = delta_family(catalog_fan("cyclic5"))
        assert {1, 3} in fam
        assert {1, 2} not in fam
        assert {5, 2, 3} in fam

    def test_p1xp1xp1_is_triple_product_family(self):
        fam = delta_family(catalog_fan("p1xp1xp1"))
        pairs = [frozenset({1, 2}), frozenset({3, 4}), frozenset({5, 6})]
        expected = set()
        for mask in range(8):
            I = frozenset()
            for b, p in enumerate(pairs):
                if mask >> b & 1:
                    I |= p
            expected.add(I)
        assert set(fam.sets()) == expected

    def test_torsion_fan_same_family_as_coarse(self):
        coarse = delta_family(catalog_fan("p2"))
        stacky = delta_family(catalog_fan("p2_221"))
        assert [sorted(I) for I in coarse.sets()] == [
            sorted(I) for I in stacky.sets()
        ]

    def test_exhaustive_cap(self):
        with pytest.raises(DeltaCapError, match="cap 4"):
            delta_family(catalog_fan("p1xp2"), 4)

    @pytest.mark.parametrize("name", LOWDIM)
    def test_cap_holds_in_low_rank(self, name):
        fan = catalog_fan(name)
        with pytest.raises(DeltaCapError):
            delta_family(fan, fan.nrays - 1)
        assert delta_family(fan, fan.nrays) is delta_set(fan)

    @pytest.mark.parametrize("name", catalog_names())
    def test_fast_path_equals_exhaustive(self, name):
        assert_matches_exhaustive(catalog_fan(name))

    @pytest.mark.parametrize("names", RANK4_PRODUCTS + RANK5_PRODUCTS)
    def test_products_equal_exhaustive(self, names):
        assert_matches_exhaustive(named_product(names))

    @pytest.mark.parametrize("name", LOWDIM)
    def test_duality_under_complement(self, name):
        fan = catalog_fan(name)
        fam = delta_family(fan)
        universe = frozenset(range(1, fan.nrays + 1))
        for I, betti in fam.members:
            assert universe - I in fam
            assert fam.betti(universe - I) == tuple(reversed(betti))

    def test_relabel_invariance(self):
        rng = random.Random(11)
        fan = catalog_fan("cyclic5")
        fam = delta_family(fan)
        perm = list(range(1, fan.nrays + 1))
        rng.shuffle(perm)
        relabeled = make_fan(
            fan.rank,
            [fan.rays[perm.index(i + 1)] for i in range(fan.nrays)],
            [
                tuple(perm[i - 1] for i in sorted(c))
                for c in fan.max_cones
            ],
        )
        fam2 = delta_family(relabeled)
        mapped = {
            frozenset(perm[i - 1] for i in I): b for I, b in fam.members
        }
        assert dict(fam2.members) == mapped


@pytest.mark.usefixtures("no_boundary_ranks")
class TestNoLinearAlgebraBelowRankFive:
    """Ranks 1-4 read Delta off components and the Euler characteristic."""

    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog(self, name):
        assert len(delta_family(catalog_fan(name))) >= 2

    @pytest.mark.parametrize("names", RANK4_PRODUCTS)
    def test_rank_four_products(self, names):
        assert len(delta_family(named_product(names))) >= 2

    def test_guard_is_live_in_rank_five(self):
        with pytest.raises(AssertionError, match="boundary rank"):
            delta_family(named_product(PRODUCTS[5][0]))
