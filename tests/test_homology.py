"""Reduced Betti numbers of the support-complex oracle, and the index family."""

import random

import pytest

from fangen import (
    PRODUCTS,
    assert_matches_exhaustive,
    complete_fans,
    named_product,
    product_fan,
    stellar,
)
from stackycoh import homology
from stackycoh.catalog import catalog_fan, catalog_names
from stackycoh.exactlin import rat_rank
from stackycoh.fan import make_fan
from stackycoh.homology import DeltaCapError, delta_family, delta_set
from test_generated_fans import stellar_fans

from oracles import (
    complex_CI,
    exhaustive_delta,
    is_union_of,
    minimal_non_faces,
    reduced_betti,
    simplicial_complex,
    supp,
)

LOWDIM = [n for n in catalog_names() if catalog_fan(n).rank in (2, 3)]
RANK4_PRODUCTS, RANK5_PRODUCTS, RANK6_PRODUCTS = (
    [pytest.param(names, id="x".join(names)) for names in PRODUCTS[rank]]
    for rank in (4, 5, 6)
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
        assert [sorted(I) for I, _ in fam] == [[], [1, 2, 3]]
        betti = dict(fam)
        assert betti[frozenset()] == (1, 0, 0)
        assert betti[frozenset({1, 2, 3})] == (0, 0, 1)

    def test_p1xp1(self):
        fam = delta_family(catalog_fan("p1xp1"))
        assert [sorted(I) for I, _ in fam] == [
            [],
            [1, 2],
            [3, 4],
            [1, 2, 3, 4],
        ]
        assert dict(fam)[frozenset({1, 2})] == (0, 1, 0)

    def test_p1xp2(self):
        fam = delta_family(catalog_fan("p1xp2"))
        assert [sorted(I) for I, _ in fam] == [
            [],
            [1, 2],
            [3, 4, 5],
            [1, 2, 3, 4, 5],
        ]
        assert dict(fam)[frozenset({3, 4, 5})] == (0, 0, 1, 0)

    def test_cyclic5_membership(self):
        sets = {I for I, _ in delta_family(catalog_fan("cyclic5"))}
        assert frozenset({1, 3}) in sets
        assert frozenset({1, 2}) not in sets
        assert frozenset({5, 2, 3}) in sets

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
        assert {I for I, _ in fam} == expected

    def test_torsion_fan_same_family_as_coarse(self):
        coarse = delta_family(catalog_fan("p2"))
        stacky = delta_family(catalog_fan("p2_221"))
        assert [sorted(I) for I, _ in coarse] == [
            sorted(I) for I, _ in stacky
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

    @pytest.mark.parametrize("names", RANK4_PRODUCTS + RANK5_PRODUCTS + RANK6_PRODUCTS)
    def test_products_equal_exhaustive(self, names):
        assert_matches_exhaustive(named_product(names))

    def test_subdivided_rank_five_product_equals_exhaustive(self):
        # no product symmetry left: its last cone subdivided with unequal weights
        fan = named_product(("p1xp1", "p3"))
        cone = max(fan.max_cones, key=sorted)
        assert_matches_exhaustive(stellar(fan, cone, [1, 2, 1, 3, 1]))

    @pytest.mark.parametrize("name", LOWDIM)
    def test_duality_under_complement(self, name):
        fan = catalog_fan(name)
        fam = dict(delta_family(fan))
        universe = frozenset(range(1, fan.nrays + 1))
        for I, betti in fam.items():
            assert universe - I in fam
            assert fam[universe - I] == tuple(reversed(betti))

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
            frozenset(perm[i - 1] for i in I): b for I, b in fam
        }
        assert dict(fam2) == mapped


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


class TestSmallerSide:
    """Above rank 4 the boundary ranks are taken on the side with fewer rays."""

    @pytest.mark.parametrize("names", [
        pytest.param(("p2", "p1xp2"), id="p1xp2xp2"),
        pytest.param(("p1xp1", "p1xp1xp1"), id="p1^5"),
    ])
    def test_every_rank_is_taken_on_the_smaller_side(self, monkeypatch, names):
        # each rank is charged to the innermost (I, Ic) of _proper_betti
        # in progress; a swapped call nests inside the call it swaps
        fan, open_calls, charged = named_product(names), [], []
        proper_betti = homology._proper_betti

        def tracked(m, I, Ic, *rest):
            open_calls.append((I, Ic))
            try:
                return proper_betti(m, I, Ic, *rest)
            finally:
                open_calls.pop()

        def counted(rows):
            charged.append((*open_calls[-1], len(open_calls)))
            return rat_rank(rows)

        monkeypatch.setattr(homology, "_proper_betti", tracked)
        monkeypatch.setattr(homology, "rat_rank", counted)
        delta_set.cache_clear()
        try:
            delta_set(fan)
        finally:
            delta_set.cache_clear()
        assert charged
        assert [c for c in charged if c[0].bit_count() > c[1].bit_count()] == []
        assert {depth for _, _, depth in charged} == {1, 2}


def p1_power(k):
    """(P1)^k, the product of k copies of the projective line."""
    fan = catalog_fan("p1")
    for _ in range(k - 1):
        fan = product_fan(fan, catalog_fan("p1"))
    return fan


def visited_sets(monkeypatch, fan):
    """The index sets delta_set hands to _proper_betti, as ray bitmasks.

    Only the calls of the enumerator count, not the smaller-side
    recursion of _proper_betti into the complement.
    """
    proper_betti, seen, depth = homology._proper_betti, [], []

    def tracked(m, I, *rest):
        if not depth:
            seen.append(I)
        depth.append(I)
        try:
            return proper_betti(m, I, *rest)
        finally:
            depth.pop()

    monkeypatch.setattr(homology, "_proper_betti", tracked)
    delta_set.cache_clear()
    try:
        delta_set(fan)
    finally:
        delta_set.cache_clear()
    return seen


class TestMinimalNonFaces:
    """From rank 4 on Delta is enumerated over unions of minimal non-faces.

    A ray of I that lies in no minimal non-face inside I is the apex of a
    cone over C_I, so C_I is acyclic; by Alexander duality the same holds
    for the complement. (P1)^5 is held against the exhaustive oracle with
    the other products above.
    """

    @pytest.mark.parametrize("fan", complete_fans() + stellar_fans())
    def test_proper_members_are_unions(self, fan):
        minimal = minimal_non_faces(fan)
        universe = frozenset(range(1, fan.nrays + 1))
        assert [
            sorted(I) for I, _ in exhaustive_delta(fan)
            if I and I != universe
            and not (is_union_of(I, minimal) and is_union_of(universe - I, minimal))
        ] == []

    @pytest.mark.parametrize("fan", complete_fans() + stellar_fans())
    def test_visits_exactly_the_unions(self, monkeypatch, fan):
        # each set once, without the last ray; every one below rank 4
        seen, n = visited_sets(monkeypatch, fan), fan.nrays
        expected = range(1, 1 << (n - 1))
        if fan.rank >= 4:
            minimal, universe = minimal_non_faces(fan), frozenset(range(1, n + 1))
            rays = {I: frozenset(i + 1 for i in range(n) if I >> i & 1) for I in expected}
            expected = [
                I for I in expected
                if is_union_of(rays[I], minimal) and is_union_of(universe - rays[I], minimal)
            ]
        assert sorted(seen) == list(expected)

    @pytest.mark.parametrize("fan,count", [
        pytest.param(catalog_fan("p1xp1xp1"), 31, id="p1xp1xp1"),
        pytest.param(p1_power(6), 31, id="p1^6"),
        pytest.param(p1_power(7), 63, id="p1^7"),
    ])
    def test_visit_counts(self, monkeypatch, fan, count):
        # rank 3 visits all 2^5 - 1 sets; (P1)^k only the 2^(k-1) - 1
        # nonempty unions of its k pairs that leave out the last pair
        assert len(visited_sets(monkeypatch, fan)) == count

    @pytest.mark.parametrize("names,seed", [
        pytest.param(("p2", "p2"), 1, id="p2xp2"),
        pytest.param(("p1", "p3"), 2, id="p1xp3"),
        pytest.param(("p1", "p1xp2"), 3, id="p1xp1xp2"),
    ])
    def test_random_subdivisions_equal_exhaustive(self, names, seed):
        # no product symmetry left: 10 rays after unequally weighted subdivisions
        rng = random.Random(seed)
        fan = named_product(names)
        while fan.nrays < 10:
            cone = rng.choice(sorted(fan.max_cones, key=sorted))
            fan = stellar(fan, cone, [rng.randint(1, 3) for _ in range(fan.rank)])
        assert_matches_exhaustive(fan)
