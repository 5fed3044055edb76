"""Class group structure and canonical coordinates."""

import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fangen import complete_fans
from oracles import classes_equal, lattice_equivalent
from stackycoh.catalog import catalog_fan, catalog_names
from stackycoh import picard
from stackycoh.fan import FanValidationError, StackyFan
from stackycoh.picard import (
    class_from_canonical,
    class_of,
    class_to_json,
    pic_structure,
)


def _shift(fan, a, w):
    return [
        a[i] + sum(w[j] * fan.rays[i][j] for j in range(fan.rank))
        for i in range(fan.nrays)
    ]


class TestStructure:
    @pytest.mark.parametrize(
        "name,free_rank,torsion",
        [
            ("p1", 1, ()),
            ("p1_21", 1, ()),
            ("p1_22", 1, (2,)),
            ("p2", 1, ()),
            ("p2_211", 1, ()),
            ("p2_221", 1, (2,)),
            ("p1xp1", 2, ()),
            ("hirzebruch1", 2, ()),
            ("cyclic5", 3, ()),
            ("p3", 1, ()),
            ("p3_2111", 1, ()),
            ("p1xp2", 2, ()),
            ("p1xp1xp1", 3, ()),
            ("blp3_123", 2, ()),
            ("blp3_center", 2, ()),
            ("tilted_bipyramid", 2, ()),
        ],
    )
    def test_frozen_ranks(self, name, free_rank, torsion):
        st_ = pic_structure(catalog_fan(name))
        assert st_.free_rank == free_rank
        assert st_.torsion == torsion

    def test_free_rank_is_rays_minus_rank(self):
        for name in catalog_names():
            fan = catalog_fan(name)
            assert pic_structure(fan).free_rank == fan.nrays - fan.rank

    def test_rays_spanning_a_line_are_refused(self):
        # built directly, bypassing validation: two opposite rays in rank 2
        fan = StackyFan(
            rank=2,
            rays=((1, 0), (-1, 0)),
            max_cones=(frozenset({1}), frozenset({2})),
        )
        with pytest.raises(FanValidationError, match="not complete"):
            pic_structure(fan)

    @pytest.mark.parametrize(
        "name,snf,message",
        [
            # U = diag(1, 2) has det 2, so its inverse is not integral
            ("p1", (((1,), (0,)), ((1, 0), (0, 2)), ((1,),)), "not unimodular"),
            # the order 2 comes before a 1
            (
                "p2",
                (((2, 0), (0, 1), (0, 0)), ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((1, 0), (0, 1))),
                "divisibility chain",
            ),
        ],
    )
    def test_broken_smith_transform_is_refused(self, monkeypatch, name, snf, message):
        monkeypatch.setattr(picard, "smith_normal_form", lambda rays: snf)
        # the uncached function, so no structure of the catalog fan is stored or read
        with pytest.raises(AssertionError, match=message):
            pic_structure.__wrapped__(catalog_fan(name))


class TestClassesEqual:
    def test_p2_hyperplanes_agree(self):
        fan = catalog_fan("p2")
        assert classes_equal(fan, (1, 0, 0), (0, 1, 0))
        assert classes_equal(fan, (1, 0, 0), (0, 0, 1))
        assert not classes_equal(fan, (1, 0, 0), (0, 0, 2))

    def test_non_integral_solution_rejected(self):
        fan = catalog_fan("p1_22")
        # rays (2) and (-2): difference (1, 0) needs w = 1/2
        assert not classes_equal(fan, (1, 0), (0, 0))
        assert classes_equal(fan, (2, 0), (0, 2))

    @pytest.mark.parametrize("name", catalog_names())
    def test_matches_lattice_oracle(self, name):
        # b is a shifted by a random w, and half the time also perturbed
        # at one ray, which may or may not leave the class
        fan = catalog_fan(name)
        rng = random.Random(name)
        outcomes = set()
        for k in range(200):
            a = [rng.randint(-6, 6) for _ in range(fan.nrays)]
            b = _shift(fan, a, [rng.randint(-4, 4) for _ in range(fan.rank)])
            if k % 2:
                b[rng.randrange(fan.nrays)] += rng.choice((-2, -1, 1, 2))
            same = lattice_equivalent(fan, a, b)
            assert classes_equal(fan, a, b) == same, (a, b)
            outcomes.add(same)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("name", ["p1_22", "p2_221", "p1xp1_2131"])
    def test_rational_relations_on_stacky_fans(self, name):
        # (w . v_i)_i with w in (1/6)Z^m: where the vector is integral,
        # it is a relation exactly when w is integral; on the torsion fans
        # some non-integral w give the torsion classes
        fan = catalog_fan(name)
        rng = random.Random(name)
        fractional = 0
        for _ in range(300):
            w = [Fraction(rng.randint(-12, 12), 6) for _ in range(fan.rank)]
            diff = [sum(map(mul, w, v)) for v in fan.rays]
            if any(d.denominator != 1 for d in diff):
                continue
            a = [rng.randint(-6, 6) for _ in range(fan.nrays)]
            b = [x + int(d) for x, d in zip(a, diff)]
            integral = all(x.denominator == 1 for x in w)
            fractional += not integral
            assert classes_equal(fan, a, b) == integral, (w, a)
            assert lattice_equivalent(fan, a, b) == integral, (w, a)
        assert (fractional > 0) == bool(pic_structure(fan).torsion)


class TestCanonicalCoordinates:
    def test_shift_invariance_random(self):
        rng = random.Random(17)
        for name in catalog_names():
            fan = catalog_fan(name)
            for _ in range(100):
                a = [rng.randint(-9, 9) for _ in range(fan.nrays)]
                w = [rng.randint(-9, 9) for _ in range(fan.rank)]
                ca = class_of(fan, a)
                cb = class_of(fan, _shift(fan, a, w))
                assert (ca.free, ca.torsion) == (cb.free, cb.torsion)

    @pytest.mark.parametrize("torsion", [(), (0, 1)])
    def test_wrong_number_of_torsion_residues(self, torsion):
        # p1_22 has one torsion factor
        fan = catalog_fan("p1_22")
        assert len(pic_structure(fan).torsion) == 1
        with pytest.raises(ValueError, match="^expected 1 torsion residues$"):
            class_from_canonical(fan, [0] * pic_structure(fan).free_rank, torsion)

    def test_round_trip_through_canonical(self):
        # class_from_canonical does not read its coordinates back, so they
        # are read here from its raw vector; the torsion residues are given
        # unreduced, and must come back reduced
        rng = random.Random(23)
        for param in complete_fans():
            (fan,) = param.values
            orders = pic_structure(fan).torsion
            for _ in range(20):
                a = [rng.randint(-5, 5) for _ in range(fan.nrays)]
                c = class_of(fan, a)
                torsion = [t + d * rng.randint(-2, 2) for t, d in zip(c.torsion, orders)]
                back = class_from_canonical(fan, c.free, torsion)
                again = class_of(fan, back.raw)
                assert (again.free, again.torsion) == (c.free, c.torsion)
                assert (back.free, back.torsion) == (c.free, c.torsion)
                assert lattice_equivalent(fan, back.raw, a)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["p2", "p1xp1", "p1_22", "p2_221", "p1xp2"]),
        st.data(),
    )
    def test_addition_is_coordinatewise(self, name, data):
        fan = catalog_fan(name)
        st_ = pic_structure(fan)
        a = data.draw(
            st.lists(st.integers(-6, 6), min_size=fan.nrays, max_size=fan.nrays)
        )
        b = data.draw(
            st.lists(st.integers(-6, 6), min_size=fan.nrays, max_size=fan.nrays)
        )
        ca, cb = class_of(fan, a), class_of(fan, b)
        cs = class_of(fan, [x + y for x, y in zip(a, b)])
        assert cs.free == tuple(x + y for x, y in zip(ca.free, cb.free))
        assert cs.torsion == tuple(
            (x + y) % d for x, y, d in zip(ca.torsion, cb.torsion, st_.torsion)
        )

    def test_torsion_detects_two_classes(self):
        fan = catalog_fan("p1_22")
        c10 = class_of(fan, (1, 0))
        c01 = class_of(fan, (0, 1))
        assert c10.free == c01.free
        assert c10.torsion != c01.torsion
        assert not classes_equal(fan, (1, 0), (0, 1))

    def test_torsion_residues_in_range(self):
        fan = catalog_fan("p2_221")
        st_ = pic_structure(fan)
        assert st_.torsion == (2,)
        for a0 in range(-3, 4):
            c = class_of(fan, (a0, 0, 0))
            assert all(0 <= t < d for t, d in zip(c.torsion, st_.torsion))

    def test_json_shape(self):
        fan = catalog_fan("p1_22")
        js = class_to_json(class_of(fan, (1, 0)))
        assert js == {
            "raw": [1, 0],
            "canonical": {"free": [1], "torsion": [1]},
        }

    @pytest.mark.parametrize("a", [(0.9, 0, 0), (Fraction(3, 2), 0, 0), (0, 0, 2.0)])
    def test_non_integer_coefficients_refused(self, a):
        # int() used to truncate them: (0.9, 0, 0) became the class of (0, 0, 0)
        with pytest.raises(TypeError, match=r"^integer coefficients expected, got the entry"):
            class_of(catalog_fan("p2"), a)

    @pytest.mark.parametrize("name,free,torsion,entry", [
        ("p2", (0.9,), (), "0.9"),
        ("p1_22", (Fraction(3, 2),), (1,), r"Fraction\(3, 2\)"),
        ("p1_22", (1,), (1.7,), "1.7"),
    ])
    def test_non_integer_coordinates_refused(self, name, free, torsion, entry):
        # int() used to truncate them: (0.9,) on P2 gave the class of (0, 0, 0)
        with pytest.raises(TypeError, match=rf"^integer coordinates expected, got the entry {entry}$"):
            class_from_canonical(catalog_fan(name), free, torsion)

    def test_wrong_lengths_rejected(self):
        fan = catalog_fan("p2")
        with pytest.raises(ValueError):
            class_of(fan, (1, 0))
        with pytest.raises(ValueError):
            class_from_canonical(fan, (1, 2))
