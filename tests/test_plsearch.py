"""Piecewise-linear functions, degenerate search, families, verdicts."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from stackycoh import plsearch
from stackycoh.catalog import catalog_fan, catalog_names
from stackycoh.cohomline import Limits, is_h_trivial, outside_all_interiors
from stackycoh.exactlin import build_tower
from stackycoh.fan import collinear_pairs, load_fan, make_fan
from stackycoh.homology import DeltaCapError, delta_family
from stackycoh.plsearch import (
    FINITELY_MANY,
    INFINITELY_MANY,
    UNDETERMINED,
    _linear_parts,
    criterion_report,
    degenerate_space,
    family_class,
    family_classes,
    find_degenerate_psi,
    normalize_at_ray,
    pl_function,
    is_linear,
    sign_changes,
)

from oracles import affine_dim, lambda_polytope, lattice_equivalent, sign_rhs, signed_rays, tower_feasible

BENCH_FANS = Path(__file__).resolve().parent.parent / "bench" / "fans"


def cone_forms(fan, psi):
    """The linear part of psi on each maximal cone, A_sigma / d_sigma from the package's parts."""
    parts = _linear_parts(fan, psi.values)
    return {cone: tuple(Fraction(x, d) for x in a) for cone, (d, a) in zip(fan.max_cones, parts)}


# find_degenerate_psi on the catalog and bench/fans: (ray, psi values) or None
PINNED_PSI = {
    "blp3_123": None,
    "blp3_center": (4, (1, 0, 0, 0, 0)),
    "cyclic5": (1, (0, 1, 1, 0, 0)),
    "hirzebruch1": (2, (1, 0, 0, 0)),
    "p1": None,
    "p1_21": None,
    "p1_22": None,
    "p1xp1": (1, (0, 0, 1, 0)),
    "p1xp1_2131": (1, (0, 0, 1, 0)),
    "p1xp1xp1": (1, (0, 0, 1, 0, 0, 0)),
    "p1xp2": (1, (0, 0, 1, 0, 0)),
    "p2": None,
    "p2_211": None,
    "p2_221": None,
    "p3": None,
    "p3_2111": None,
    "quad4": None,
    "tilted_bipyramid": (4, (1, 0, 0, 0, 0)),
    "antiprism": None,
    "p1xp1xp1xp1": (1, (0, 0, 1, 0, 0, 0, 0, 0)),
    "p1xp1xp2": (1, (0, 0, 1, 0, 0, 0, 0)),
    "p1xp2xp2": (1, (0, 0, 1, 0, 0, 0, 0, 0)),
    "p1xp3": (1, (0, 0, 1, 0, 0, 0)),
    "p2xp2": (1, (0, 0, 0, 1, 0, 0)),
}

WITH_PSI = [
    "p1xp1",
    "p1xp1_2131",
    "hirzebruch1",
    "cyclic5",
    "p1xp2",
    "p1xp1xp1",
    "blp3_center",
    "tilted_bipyramid",
]
WITHOUT_PSI = [
    "p1",
    "p1_21",
    "p1_22",
    "p2",
    "p2_211",
    "p2_221",
    "quad4",
    "p3",
    "p3_2111",
    "blp3_123",
]


def antiprism_fan():
    """Two twisted triangulated caps over a vertical collinear pair."""
    return make_fan(
        3,
        [
            (0, 0, 1),
            (0, 0, -1),
            (4, 0, 1),
            (-2, 3, 1),
            (-2, -3, 1),
            (2, 2, -1),
            (-3, 1, -1),
            (1, -3, -1),
        ],
        [
            (1, 3, 4),
            (1, 4, 5),
            (1, 5, 3),
            (2, 6, 7),
            (2, 7, 8),
            (2, 8, 6),
            (3, 6, 4),
            (6, 4, 7),
            (4, 7, 5),
            (7, 5, 8),
            (5, 8, 3),
            (8, 3, 6),
        ],
    )


class TestConeLinearPart:
    def test_restriction_of_global_form(self):
        fan = catalog_fan("p1xp2")
        w0 = (2, -1, 3)
        psi = pl_function(
            [sum(w0[j] * v[j] for j in range(3)) for v in fan.rays]
        )
        for form in cone_forms(fan, psi).values():
            assert form == tuple(Fraction(x) for x in w0)
        assert lambda_polytope(fan, psi).dim == 0

    def test_absolute_value_function(self):
        fan = catalog_fan("p1xp1")
        psi = pl_function((1, 1, 0, 0))
        forms = cone_forms(fan, psi)
        assert forms[frozenset({1, 3})] == (1, 0)
        assert forms[frozenset({2, 3})] == (-1, 0)
        lp = lambda_polytope(fan, psi)
        assert lp.dim == 1
        assert set(lp.forms) == {(1, 0), (-1, 0)}

    def test_rational_linear_function(self):
        fan = catalog_fan("blp3_center")
        w = (Fraction(1, 2), Fraction(-1, 3), Fraction(2))
        psi = pl_function([sum(x * y for x, y in zip(w, v)) for v in fan.rays])
        assert is_linear(fan, psi)
        lp = lambda_polytope(fan, psi)
        assert lp.dim == 0
        assert set(lp.forms) == {w}

    def test_p1xp2_absolute_value(self):
        fan = catalog_fan("p1xp2")
        assert lambda_polytope(fan, pl_function((1, 1, 0, 0, 0))).dim == 1

    @pytest.mark.parametrize("name", catalog_names())
    def test_dim_is_affine_dim_of_forms(self, name):
        # the integer (det, adj) route against Fraction forms and echelon rank
        fan = catalog_fan(name)
        rng = random.Random(name)
        for trial in range(6):
            psi = pl_function([Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in fan.rays])
            if trial == 0:
                psi = pl_function([sum(w * x for w, x in zip((2, -1, 3), v)) for v in fan.rays])
            lp = lambda_polytope(fan, psi)
            assert lp.dim == affine_dim(lp.forms)
            assert is_linear(fan, psi) == (lp.dim == 0)


class TestDegenerateSpace:
    def test_p2_only_linear(self):
        fan = catalog_fan("p2")
        for s in (1, 2, 3):
            _, dim = degenerate_space(fan, s)
            assert dim == 1  # rank minus one

    def test_p1xp1_pair_ray(self):
        _, dim = degenerate_space(catalog_fan("p1xp1"), 3)
        assert dim == 2

    def test_p1xp2_pair_ray(self):
        _, dim = degenerate_space(catalog_fan("p1xp2"), 3)
        assert dim == 3

    def test_contains_linear_forms_vanishing_at_ray(self):
        fan = catalog_fan("quad4")
        for s in range(1, fan.nrays + 1):
            basis, dim = degenerate_space(fan, s)
            assert dim >= fan.rank - 1
            for vec in basis:
                psi = pl_function(vec)
                vs = fan.rays[s - 1]
                for form in cone_forms(fan, psi).values():
                    assert sum(form[j] * vs[j] for j in range(fan.rank)) == 0

    def test_bad_ray_index(self):
        with pytest.raises(ValueError):
            degenerate_space(catalog_fan("p2"), 9)


class TestFindDegeneratePsi:
    def test_p1xp1_frozen(self):
        s, psi = find_degenerate_psi(catalog_fan("p1xp1"))
        assert s == 1
        assert psi.values == (0, 0, 1, 0)

    @pytest.mark.parametrize("name", sorted(PINNED_PSI))
    def test_pinned(self, name):
        path = BENCH_FANS / f"{name}.json"
        fan = load_fan(path.read_text()) if path.exists() else catalog_fan(name)
        found = find_degenerate_psi(fan)
        if PINNED_PSI[name] is None:
            assert found is None
        else:
            s, psi = found
            assert (s, psi.values) == PINNED_PSI[name]
            assert all(type(v) is Fraction for v in psi.values)

    @pytest.mark.parametrize("name", WITHOUT_PSI)
    def test_absent(self, name):
        assert find_degenerate_psi(catalog_fan(name)) is None

    @pytest.mark.parametrize("name", WITH_PSI)
    def test_found_with_required_properties(self, name):
        fan = catalog_fan(name)
        s, psi = find_degenerate_psi(fan)
        assert psi.is_integral
        lp = lambda_polytope(fan, psi)
        assert 0 < lp.dim < fan.rank
        vs = fan.rays[s - 1]
        for form in lp.forms:
            assert sum(form[j] * vs[j] for j in range(fan.rank)) == 0

    @pytest.mark.parametrize("name", [n for n in catalog_names()
                                      if catalog_fan(n).rank == 2])
    def test_2d_equivalence_with_collinear_pairs(self, name):
        fan = catalog_fan(name)
        has_pair = bool(collinear_pairs(fan))
        assert (find_degenerate_psi(fan) is not None) == has_pair

    def test_antiprism_has_pair_but_no_psi(self):
        fan = antiprism_fan()
        assert collinear_pairs(fan) == ((1, 2),)
        assert find_degenerate_psi(fan) is None


def _scaled(psi, k):
    """k times the PL function psi."""
    return pl_function([k * v for v in psi.values])


class TestFamilyClass:
    def test_r_zero_is_minus_one_at_ray(self):
        fan = catalog_fan("p1xp1")
        cls = family_class(fan, 3, pl_function((1, 1, 0, 0)), 0)
        assert cls.raw == (0, 0, -1, 0)

    def test_p1xp1_frozen_example(self):
        fan = catalog_fan("p1xp1")
        cls = family_class(fan, 3, pl_function((1, 1, 0, 0)), 2)
        assert lattice_equivalent(fan, cls.raw, (4, 0, -1, 0))

    def test_p1xp2_frozen_example(self):
        fan = catalog_fan("p1xp2")
        cls = family_class(fan, 3, pl_function((1, 1, 0, 0, 0)), 1)
        assert lattice_equivalent(fan, cls.raw, (2, 0, -1, 0, 0))

    @pytest.mark.parametrize("name", WITH_PSI)
    def test_family_is_h_trivial_and_distinct(self, name):
        fan = catalog_fan(name)
        s, psi = find_degenerate_psi(fan)
        seen = set()
        for r in range(-5, 6):
            cls = family_class(fan, s, psi, r)
            assert is_h_trivial(fan, cls.raw), (name, r)
            key = (cls.free, cls.torsion)
            assert key not in seen, (name, r)
            seen.add(key)

    @pytest.mark.parametrize("name", WITH_PSI)
    def test_weak_systems_have_no_rational_point(self, name):
        # so H-triviality checks of family classes never spend the lattice
        # point cap; rays scaled by random multipliers make stacky variants
        rng = random.Random(name)
        base = catalog_fan(name)
        for trial in range(4):
            mult = [1 if trial == 0 else rng.randint(1, 4) for _ in base.rays]
            fan = make_fan(
                base.rank,
                [tuple(k * x for x in v) for k, v in zip(mult, base.rays)],
                [sorted(c) for c in base.max_cones],
            )
            s, psi = find_degenerate_psi(fan)
            for r in range(-5, 6):
                raw = family_class(fan, s, psi, r).raw
                for I, _ in delta_family(fan):
                    tower = build_tower(signed_rays(fan, I), fan.rank)
                    assert not tower_feasible(tower, sign_rhs(raw, I)), (mult, r, I)

    def test_scaling_reindexes_parameter(self):
        fan = catalog_fan("p1xp2")
        s, psi = find_degenerate_psi(fan)
        for k in (2, 3):
            for r in (-2, 0, 1, 3):
                assert (
                    family_class(fan, s, _scaled(psi, k), r).raw
                    == family_class(fan, s, psi, k * r).raw
                )

    @pytest.mark.parametrize("name", WITH_PSI)
    def test_psi_checked_once_per_family(self, name, monkeypatch):
        # _forms_at_ray is the psi check: once per family, not once per r
        fan = catalog_fan(name)
        s, psi = find_degenerate_psi(fan)
        calls = []
        forms_at_ray = plsearch._forms_at_ray
        monkeypatch.setattr(plsearch, "_forms_at_ray", lambda *a: calls.append(a) or forms_at_ray(*a))
        assert len(family_classes(fan, s, psi, (-5, 5))) == 11
        assert calls == [(fan, s)]
        find_degenerate_psi(fan)
        searched = len(calls) - 1
        calls.clear()
        criterion_report(fan, (0, 0), (-5, 5))
        assert len(calls) == searched + 1

    def test_rejects_psi_outside_kernel(self):
        with pytest.raises(ValueError, match="vanish"):
            family_class(catalog_fan("p2"), 1, pl_function((1, 0, 0)), 1)

    @pytest.mark.parametrize("r,entry", [
        (1.9, "1.9"), (-0.5, "-0.5"), (Fraction(3, 2), r"Fraction\(3, 2\)"), (Fraction(2, 1), r"Fraction\(2, 1\)"),
    ])
    def test_family_class_refuses_non_integer_r(self, r, entry):
        # int() truncated it: family_class(p1xp1, 3, psi, 1.9) gave the class of r = 1
        fan = catalog_fan("p1xp1")
        with pytest.raises(TypeError, match=rf"^integer family bounds expected, got the entry {entry}$"):
            family_class(fan, 3, pl_function((1, 1, 0, 0)), r)

    @pytest.mark.parametrize("r_range,entry", [
        ((0.5, 2.9), "0.5"), ((0, 2.9), "2.9"), ((Fraction(1, 2), 2), r"Fraction\(1, 2\)"),
    ])
    def test_family_classes_refuses_non_integer_bounds(self, r_range, entry):
        # (0.5, 2.9) gave the classes of r = 0, 1, 2
        fan = catalog_fan("p1xp1")
        with pytest.raises(TypeError, match=rf"^integer family bounds expected, got the entry {entry}$"):
            family_classes(fan, 3, pl_function((1, 1, 0, 0)), r_range)

    def test_rejects_fractional_psi(self):
        fan = catalog_fan("p1xp1")
        with pytest.raises(ValueError, match="integer"):
            family_class(fan, 3, pl_function((Fraction(1, 2), 1, 0, 0)), 1)


class TestNormalizeAtRay:
    def test_p2_generic_subtraction(self):
        fan = catalog_fan("p2")
        g = normalize_at_ray(fan, pl_function((1, 0, 0)), 1)
        assert g.values[0] == 0
        assert g.values[1] != 0 and g.values[2] != 0

    def test_collinear_partner_value_is_forced(self):
        # on the x-axis pair of P1xP1 the difference f(v1) + f(v2)
        # survives any linear subtraction
        fan = catalog_fan("p1xp1")
        g = normalize_at_ray(fan, pl_function((1, 1, 0, 0)), 1)
        assert g.values[0] == 0
        assert g.values[1] == 2
        assert g.values[2] != 0 and g.values[3] != 0

    def test_linear_input_collapses_to_zero(self):
        fan = catalog_fan("p1xp1")
        lin = pl_function([3 * v[0] - 2 * v[1] for v in fan.rays])
        g = normalize_at_ray(fan, lin, 2)
        assert all(v == 0 for v in g.values)

    def test_deterministic(self):
        fan = catalog_fan("p1xp2")
        f = pl_function((2, -1, 3, 0, 1))
        assert (
            normalize_at_ray(fan, f, 4).values
            == normalize_at_ray(fan, f, 4).values
        )

    def test_nonparallel_rays_never_vanish(self):
        rng = random.Random(43)
        for name in ["p2", "cyclic5", "p1xp2", "blp3_123"]:
            fan = catalog_fan(name)
            for _ in range(10):
                f = pl_function(
                    [rng.randint(-5, 5) for _ in range(fan.nrays)]
                )
                s = rng.randint(1, fan.nrays)
                g = normalize_at_ray(fan, f, s)
                assert g.values[s - 1] == 0
                if all(v == 0 for v in g.values):
                    continue  # linear input
                # off the line of v_s: neither s nor its collinear partner
                on_line = {s}.union(*(p for p in collinear_pairs(fan) if s in p))
                for i in set(range(1, fan.nrays + 1)) - on_line:
                    assert g.values[i - 1] != 0


class TestSignChanges:
    def test_two_blocks(self):
        fan = catalog_fan("p1xp2")
        # link cycle of ray 3 is (1, 4, 2, 5)
        assert sign_changes(fan, pl_function((1, -1, 0, 1, -1)), 3) == 2

    def test_constant_sign(self):
        fan = catalog_fan("p1xp2")
        assert sign_changes(fan, pl_function((1, 1, 0, 1, 1)), 3) == 0

    def test_alternating(self):
        fan = catalog_fan("p1xp2")
        assert sign_changes(fan, pl_function((1, 1, 0, -1, -1)), 3) == 4

    def test_rank_two_rejected(self):
        with pytest.raises(ValueError):
            sign_changes(catalog_fan("p2"), pl_function((0, 1, 1)), 1)

    def test_nonvanishing_center_rejected(self):
        fan = catalog_fan("p1xp2")
        with pytest.raises(ValueError):
            sign_changes(fan, pl_function((1, 1, 2, 1, 1)), 3)

    def test_zero_on_cycle_rejected(self):
        fan = catalog_fan("p1xp2")
        with pytest.raises(ValueError, match="cycle"):
            sign_changes(fan, pl_function((0, 1, 0, 1, 1)), 3)

    @pytest.mark.parametrize("name", ["p1xp2", "p1xp1xp1", "blp3_123"])
    def test_count_is_even(self, name):
        rng = random.Random(47)
        fan = catalog_fan(name)
        done = 0
        while done < 20:
            s = rng.randint(1, fan.nrays)
            vals = [rng.choice([-2, -1, 1, 2]) for _ in range(fan.nrays)]
            vals[s - 1] = 0
            try:
                c = sign_changes(fan, pl_function(vals), s)
            except ValueError:
                continue
            assert c % 2 == 0
            done += 1


def _sampled_two_changes(fan, degrees_to_raw, rng, count):
    """Sample classes outside all interiors; check two sign changes."""
    done = 0
    while done < count:
        raw = degrees_to_raw(rng)
        if not outside_all_interiors(fan, raw):
            continue
        s = rng.randint(1, fan.nrays)
        g = normalize_at_ray(fan, pl_function(raw), s)
        if all(v == 0 for v in g.values):
            continue
        bad = any(
            g.values[i - 1] == 0
            for i in range(1, fan.nrays + 1)
            if i != s
        )
        if bad:
            continue
        assert sign_changes(fan, g, s) == 2
        done += 1


class TestTwoSignChangesProperty:
    def test_p1xp2(self):
        fan = catalog_fan("p1xp2")

        def sample(rng):
            # one factor degree zero keeps the class outside interiors
            if rng.random() < 0.5:
                return (0, 0, rng.randint(-4, 4), 0, 0)
            return (rng.randint(-4, 4), 0, 0, 0, 0)

        _sampled_two_changes(fan, sample, random.Random(53), 25)

    def test_p1xp1xp1(self):
        fan = catalog_fan("p1xp1xp1")

        def sample(rng):
            degs = [rng.randint(-4, 4) for _ in range(3)]
            degs[rng.randint(0, 2)] = 0
            return (degs[0], 0, degs[1], 0, degs[2], 0)

        _sampled_two_changes(fan, sample, random.Random(59), 25)


class TestCriterionReport:
    @pytest.mark.parametrize(
        "name,verdict",
        [
            ("p3", FINITELY_MANY),
            ("p3_2111", FINITELY_MANY),
            ("blp3_123", FINITELY_MANY),
            ("quad4", UNDETERMINED),
            ("p2", UNDETERMINED),
            ("p1", UNDETERMINED),
            ("p1xp1", INFINITELY_MANY),
            ("p1xp2", INFINITELY_MANY),
            ("p1xp1xp1", INFINITELY_MANY),
            ("blp3_center", INFINITELY_MANY),
            ("tilted_bipyramid", INFINITELY_MANY),
        ],
    )
    def test_catalog_verdicts(self, name, verdict):
        rep = criterion_report(catalog_fan(name))
        assert rep.verdict == verdict

    def test_family_evidence_all_pass(self):
        rep = criterion_report(catalog_fan("p1xp2"))
        assert rep.degenerate_psi is not None
        assert len(rep.sampled_family_checks) == 11
        assert all(ok for _, ok in rep.sampled_family_checks)

    def test_witness_agrees_with_psi_presence_in_rank_three(self):
        # empirical version of the open equivalence: on every rank-3
        # catalog fan a nonzero class outside all interiors exists in
        # the search box exactly when a degenerate function exists
        for name in catalog_names():
            fan = catalog_fan(name)
            if fan.rank != 3:
                continue
            rep = criterion_report(fan)
            assert (rep.statement3_witness is not None) == (
                rep.degenerate_psi is not None
            ), name

    @pytest.mark.parametrize("name", ["p1_22", "p2_221"])
    def test_low_rank_torsion_witness_without_psi(self, name):
        # in low rank a torsion class can avoid every interior even
        # though no degenerate function exists
        rep = criterion_report(catalog_fan(name))
        assert rep.degenerate_psi is None
        assert rep.statement3_witness is not None
        assert any(t != 0 for t in rep.statement3_witness.torsion)
        assert rep.verdict == UNDETERMINED

    def test_limits_reach_family_checks(self):
        # the box holds only the trivial class, so only the family checks
        # enumerate Delta
        with pytest.raises(DeltaCapError, match="cap 2"):
            criterion_report(catalog_fan("p1xp1"), (0, 0), limits=Limits(delta_cap=2))

    def test_pair_counts(self):
        assert criterion_report(catalog_fan("p2")).collinear_pair_count == 0
        assert criterion_report(catalog_fan("p1xp1")).collinear_pair_count == 2
        assert (
            criterion_report(catalog_fan("p1xp1xp1")).collinear_pair_count == 3
        )

    def test_antiprism_is_finitely_many_with_one_pair(self):
        rep = criterion_report(antiprism_fan(), search_box=(-1, 1))
        assert rep.collinear_pair_count == 1
        assert rep.degenerate_psi is None
        assert rep.verdict == FINITELY_MANY
