"""Generated fans: covers of degree k refused, stellar subdivisions kept.

A fan that winds k times around the origin pairs and separates every
facet, so only the covering-degree check can refuse it. A stellar
subdivision at an interior lattice point stays complete by construction,
so it must validate, and its Delta and its cohomology must match the
exhaustive routes. On every such complete fan the sign system of each
Delta member is bounded, so its lattice points are finite in number.
"""

import json
import random
from fractions import Fraction
from itertools import cycle, product
from math import cos, gcd, pi, sin

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fangen import (
    PRODUCTS,
    assert_matches_exhaustive,
    catalog_and_products,
    complete_fans,
    named_product,
    product_fan,
    stellar,
)
from oracles import (
    brute_circuits,
    brute_cohomology,
    cone_linear_part,
    conforming_forms,
    dot,
    eliminate_unpruned_first,
    facet_normal,
    h_product,
    invert,
    rational_kernel,
    sign_rhs,
    signed_rays,
    solve_square,
    tower_bounded,
    tower_feasible,
    validate_oracle,
)
from stackycoh import exactlin
from stackycoh.catalog import catalog_fan, catalog_names
from stackycoh.cli import main
from stackycoh.cohomline import (
    Limits,
    _canonical_table,
    _circuits,
    _delta_table,
    _feasible,
    cohomology,
    h_trivial_flags,
    is_h_trivial,
    outside_all_interiors,
    scan_h_trivial,
)
from stackycoh.exactlin import build_tower
from stackycoh.fan import (
    FanValidationError,
    StackyFan,
    collinear_pairs,
    cone_adjugates,
    fan_to_json,
    make_fan,
    validate,
)
from stackycoh.homology import delta_family, delta_set
from stackycoh.picard import box_classes, box_points, class_at, class_from_canonical, pic_structure
from stackycoh.plsearch import (
    _linear_parts,
    criterion_report,
    degenerate_space,
    family_class,
    family_classes,
    find_degenerate_psi,
    pl_function,
)


def winding(k):
    """(rank, rays, cones) of a rank-2 complex going k times around 0.

    2k + 1 rays at angles 2 pi k j / (2k + 1): the directions are distinct
    and each cone {j, j + 1} turns by less than pi.
    """
    n = 2 * k + 1
    rays = []
    for j in range(n):
        t = 2 * pi * k * j / n
        x, y = round(10 * cos(t)), round(10 * sin(t))
        g = gcd(x, y)
        rays.append((x // g, y // g))
    cones = [(j + 1, (j + 1) % n + 1) for j in range(n)]
    return 2, rays, cones


def suspension(rank, rays, cones):
    """The join with the rays +e and -e of one new coordinate."""
    top, bottom = len(rays) + 1, len(rays) + 2
    rays = [tuple(r) + (0,) for r in rays]
    rays += [(0,) * rank + (1,), (0,) * rank + (-1,)]
    cones = [tuple(c) + (apex,) for c in cones for apex in (top, bottom)]
    return rank + 1, rays, cones


def covers():
    """k-fold windings in rank 2 and their suspensions to ranks 3 and 4."""
    out = []
    for k in (2, 3, 4):
        spec = winding(k)
        for _ in range(3):
            out.append(pytest.param(spec, id=f"k{k}-rank{spec[0]}"))
            spec = suspension(*spec)
    return out


def subdivisions(max_rank=None):
    out = []
    for name in catalog_names():
        fan = catalog_fan(name)
        if fan.rank < 2 or (max_rank is not None and fan.rank > max_rank):
            continue
        for idx, cone in enumerate(sorted(fan.max_cones, key=sorted)):
            out.append(pytest.param(name, cone, id=f"{name}-{idx}"))
    return out


def product_subdivisions():
    """Each product fan subdivided at its first maximal cone."""
    out = []
    for rank in sorted(PRODUCTS):
        for names in PRODUCTS[rank]:
            fan = named_product(names)
            cone = min(fan.max_cones, key=sorted)
            out.append(pytest.param(fan, cone, id="x".join(names)))
    return out


def stellar_fans():
    """Each catalog fan subdivided at every maximal cone, each product at its first."""
    out = []
    for p in subdivisions() + product_subdivisions():
        fan = p.values[0]
        fan = catalog_fan(fan) if isinstance(fan, str) else fan
        out.append(pytest.param(stellar(fan, p.values[1]), id=f"stellar-{p.id}"))
    return out


# start fans of the random subdivisions: catalog names and factor pairs
START_FANS = [(n,) for n in catalog_names() if catalog_fan(n).rank >= 2] + PRODUCTS[4]


def start_fan(names):
    return catalog_fan(names[0]) if len(names) == 1 else named_product(names)


def assert_delta_towers_bounded(fan):
    """Every Delta member's tower is bounded, which the point counts rely on."""
    unbounded = [sorted(row.index_set) for row in _delta_table(fan).rows if not tower_bounded(row.tower)]
    assert unbounded == []


def _file(tmp_path, spec):
    rank, rays, cones = spec
    path = tmp_path / "cover.json"
    path.write_text(json.dumps({
        "rank": rank,
        "rays": [list(r) for r in rays],
        "max_cones": [[i - 1 for i in c] for c in cones],
    }))
    return str(path)


class TestCovers:
    @pytest.mark.parametrize("spec", covers())
    def test_refused_as_overlap(self, spec):
        with pytest.raises(FanValidationError, match="overlap"):
            make_fan(*spec)

    @pytest.mark.parametrize("spec", covers())
    @pytest.mark.parametrize("command", [
        ("validate",),
        ("cohomology", "--coeffs=COEFFS"),
        ("report", "--box=0:0", "--r=0:0"),
    ], ids=lambda c: c[0])
    def test_cli_exits_1(self, capsys, tmp_path, spec, command):
        zeros = ",".join("0" * len(spec[1]))
        argv = [c.replace("COEFFS", zeros) for c in command]
        code = main([argv[0], _file(tmp_path, spec), *argv[1:]])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("invalid fan:") and "overlap" in err

    def test_doubly_wound_octagon(self, capsys, tmp_path):
        rays = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, 1), (-1, -1), (1, -1)]
        cones = [(j + 1, (j + 1) % 8 + 1) for j in range(8)]
        code = main(["validate", _file(tmp_path, (2, rays, cones))])
        assert code == 1
        assert capsys.readouterr().err == (
            "invalid fan: maximal cones [1, 2] and [4, 5] overlap\n"
        )


class TestStellarSubdivisions:
    @pytest.mark.parametrize("name,cone", subdivisions())
    def test_validates(self, name, cone):
        fan = stellar(catalog_fan(name), cone)
        assert fan.nrays == catalog_fan(name).nrays + 1
        assert len(fan.max_cones) == len(catalog_fan(name).max_cones) + fan.rank - 1

    @pytest.mark.parametrize("name,cone", subdivisions())
    def test_fast_delta_matches_exhaustive(self, name, cone):
        assert_matches_exhaustive(stellar(catalog_fan(name), cone))

    @pytest.mark.parametrize("fan,cone", product_subdivisions())
    def test_product_delta_matches_exhaustive(self, fan, cone):
        assert_matches_exhaustive(stellar(fan, cone))

    @pytest.mark.usefixtures("no_boundary_ranks")
    @pytest.mark.parametrize("fan,cone", [
        p for p in product_subdivisions() if p.values[0].rank == 4
    ])
    def test_rank_four_needs_no_ranks(self, fan, cone):
        assert len(delta_family(stellar(fan, cone))) >= 2

    @pytest.mark.usefixtures("no_boundary_ranks")
    @pytest.mark.parametrize("name,cone", subdivisions())
    def test_low_rank_needs_no_ranks(self, name, cone):
        assert len(delta_family(stellar(catalog_fan(name), cone))) >= 2

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(START_FANS), st.integers(1, 3), st.data())
    def test_random_subdivision_points(self, names, times, data):
        fan = start_fan(names)
        for _ in range(times):
            cone = data.draw(st.sampled_from(sorted(fan.max_cones, key=sorted)))
            weights = data.draw(st.lists(
                st.integers(1, 4), min_size=fan.rank, max_size=fan.rank
            ))
            fan = stellar(fan, cone, weights)
        assert_matches_exhaustive(fan)
        assert_delta_towers_bounded(fan)

    @pytest.mark.parametrize("name,cone", subdivisions(max_rank=2))
    def test_cohomology_matches_direct_count(self, name, cone):
        fan = stellar(catalog_fan(name), cone)
        rng = random.Random(fan_to_json(fan))
        for _ in range(3):
            a = [rng.randint(-2, 2) for _ in range(fan.nrays)]
            assert cohomology(fan, a) == brute_cohomology(fan, a, 8), a


def oracle_fans():
    """Catalog fans, products of them, and a stellar subdivision of each."""
    return catalog_and_products() + stellar_fans()


def catalog_and_stellar_fans():
    """Catalog fans, the torsion fans among them, and their stellar subdivisions."""
    return [pytest.param(catalog_fan(n), id=n) for n in catalog_names()] + stellar_fans()


class TestBoundedSignSystems:
    @pytest.mark.parametrize("fan", complete_fans())
    def test_delta_towers_bounded(self, fan):
        assert_delta_towers_bounded(fan)


class TestDeltaTable:
    """The per-fan table against one tower per index set, built directly."""

    @pytest.mark.parametrize("fan", complete_fans())
    def test_towers_equal_direct_towers(self, fan):
        # every row builds its own tower: the same levels, rows and order
        for row in _delta_table(fan).rows:
            direct = build_tower(signed_rays(fan, row.index_set), fan.rank)
            assert row.tower == direct, sorted(row.index_set)
            assert len(row.tower) == fan.rank

    @pytest.mark.parametrize("fan", complete_fans())
    def test_dot_products_decide_feasibility(self, fan):
        # the mask decisions, weak and strict, against the forms of the
        # brute-force circuits and against one tower per index set
        rng = random.Random(fan_to_json(fan))
        strict = (True,) * fan.nrays
        table = _delta_table(fan)
        forms = {row.index_set: conforming_forms(fan, row.index_set) for row in table.rows}
        for row in table.rows:
            assert bin(row.conforming).count("1") == len(forms[row.index_set])
        towers = {I: build_tower(signed_rays(fan, I), fan.rank) for I in forms}
        for _ in range(6):
            a = tuple(rng.randint(-5, 5) for _ in range(fan.nrays))
            weak = {row.index_set for row in _feasible(table, a)}
            interior = {row.index_set for row in _feasible(table, a, strict=True)}
            for I, direct in towers.items():
                by_forms = all(dot(w, a) + c <= 0 for w, c in forms[I])
                assert (I in weak) == by_forms == tower_feasible(direct, sign_rhs(a, I)), (
                    a, sorted(I)
                )
                by_forms = all(dot(w, a) < 0 for w, _ in forms[I])
                assert (I in interior) == by_forms == tower_feasible(
                    direct, sign_rhs(a, I, strict=True), strict
                ), (a, sorted(I))

    @pytest.mark.parametrize("fan", complete_fans() + stellar_fans())
    def test_circuits_match_every_small_subset(self, fan):
        d, circuits = _circuits(fan)
        assert d == fan.nrays - fan.rank
        signed = [c if next(x for x in c if x) > 0 else tuple(-x for x in c) for c in circuits]
        assert len(set(signed)) == len(signed)
        assert set(signed) == brute_circuits(fan)
        # a collinear pair, which the 3-fold criterion counts, is a circuit of two rays
        pairs = {tuple(i + 1 for i, x in enumerate(c) if x) for c in circuits}
        assert {p for p in pairs if len(p) == 2} == set(collinear_pairs(fan))

    @pytest.mark.parametrize("fan", oracle_fans())
    def test_unit_rows_have_a_point_at_m_candidates(self, fan):
        # the lemma of _DeltaRow against the walk: on a feasible row with
        # unit pivots the first-point walk finds a point with m candidates
        # and no fewer, so the flag loop may answer it from the masks
        rng = random.Random(fan_to_json(fan))
        m = fan.rank
        for _ in range(24):
            a = tuple(rng.randint(-4, 4) for _ in range(fan.nrays))
            for row in _feasible(_delta_table(fan), a):
                if row.unit:
                    b = sign_rhs(a, row.index_set)
                    assert exactlin.tower_points(row.tower, b, m, first_only=True), (a, sorted(row.index_set))
                    assert exactlin.tower_points(row.tower, b, m - 1, first_only=True) is None

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(complete_fans()), st.data())
    def test_support_check_keeps_every_row_in_order(self, param, data):
        # the rows of any index set, Delta member or not, through every level
        fan = param.values[0]
        I = data.draw(st.frozensets(st.integers(1, fan.nrays)))
        rows = signed_rays(fan, I)
        unit = [tuple(int(i == j) for j in range(len(rows))) for i in range(len(rows))]
        level = list(zip(rows, unit))
        for k in range(fan.rank - 1, -1, -1):
            expected = eliminate_unpruned_first(level, k, fan.rank - k + 1)
            level = exactlin._eliminate(level, k, fan.rank - k + 1)
            assert level == expected, (sorted(I), k)


def canonical_box(fan, lo, hi):
    """The classes of [lo, hi] in every free coordinate, one class_from_canonical each."""
    st = pic_structure(fan)
    frees = product(range(lo, hi + 1), repeat=st.free_rank)
    return [class_from_canonical(fan, f, t) for f in frees for t in product(*map(range, st.torsion))]


class TestBatchRoutes:
    """The batch routes of the box, the report and the psi family, one class at a time."""

    @pytest.mark.parametrize("fan", catalog_and_stellar_fans())
    def test_box_classes_are_canonical_points(self, fan):
        assert box_classes(fan, (-2, 1)) == canonical_box(fan, -2, 1)

    @pytest.mark.parametrize("fan", catalog_and_stellar_fans())
    def test_box_points_are_the_points_of_the_classes(self, fan):
        classes = canonical_box(fan, -2, 1)
        assert box_points(fan, (-2, 1)) == [c.point for c in classes]
        st = pic_structure(fan)
        assert all(class_at(st, c.point) == c for c in classes)

    @pytest.mark.parametrize("fan", catalog_and_stellar_fans())
    def test_composed_circuits_vanish_on_torsion(self, fan):
        # d_t u_inv e_t is a relation (w . v_i)_i, which every circuit kills,
        # so a torsion residue moves only the walks, never the masks
        t = len(pic_structure(fan).torsion)
        for c, _, _ in _canonical_table(fan, [], Limits()).circuits:
            assert c[:t] == (0,) * t, c

    @pytest.mark.parametrize("fan", catalog_and_stellar_fans())
    def test_flags_ignore_how_residues_are_reduced(self, fan):
        # an unreduced residue is another raw representative of the class
        torsion = pic_structure(fan).torsion
        points = box_points(fan, (-1, 1))
        shifted = [
            (*(r + d * k for r, d, k in zip(y, torsion, cycle((1, -2, 3)))), *y[len(torsion):])
            for y in points
        ]
        assert h_trivial_flags(fan, shifted) == h_trivial_flags(fan, points)

    @pytest.mark.parametrize("fan", catalog_and_stellar_fans())
    def test_report_matches_single_class_decisions(self, fan):
        report = criterion_report(fan, (-1, 1), (-3, 3))
        nonzero = [c for c in canonical_box(fan, -1, 1) if any(c.free) or any(c.torsion)]
        assert report.statement3_witness == next((c for c in nonzero if outside_all_interiors(fan, c.raw)), None)
        found = find_degenerate_psi(fan)
        if found is None:
            assert report.sampled_family_checks == ()
            return
        s, psi = found
        assert family_classes(fan, s, psi, (-3, 3)) == [family_class(fan, s, psi, r) for r in range(-3, 4)]
        singles = tuple((r, is_h_trivial(fan, family_class(fan, s, psi, r).raw)) for r in range(-3, 4))
        assert report.sampled_family_checks == singles

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("fan", catalog_and_stellar_fans())
    def test_scan_matches_single_class_decisions(self, fan, workers):
        # the box route (canonical points, composed circuits, unit rows
        # answered from the masks) against one walk per class of box_classes
        box = (-2, 1) if fan.rank <= 3 else (-1, 1)
        expected = tuple(c for c in box_classes(fan, box) if is_h_trivial(fan, c.raw))
        assert scan_h_trivial(fan, box, workers=workers) == expected

    def test_witnesses_found_and_missed(self):
        # the report test above sees both outcomes of the witness search
        witnesses = {criterion_report(p.values[0], (-1, 1), (0, 0)).statement3_witness is None
                     for p in catalog_and_stellar_fans()}
        assert witnesses == {True, False}


class TestIntegerCones:
    """The integer adjugates against the Fraction routes of tests/oracles.py."""

    @pytest.mark.parametrize("fan", oracle_fans())
    def test_columns_are_facet_normals(self, fan):
        adjugates = cone_adjugates(fan)
        assert len(adjugates) == len(fan.max_cones)
        for cone, (det, adj) in zip(fan.max_cones, adjugates):
            assert det != 0
            for i, h in zip(sorted(cone), zip(*adj)):
                normal = facet_normal(fan, cone - {i})
                # h is a nonzero multiple of the oracle's normal
                assert any(h) and all(
                    h[a] * normal[b] == h[b] * normal[a]
                    for a in range(fan.rank)
                    for b in range(fan.rank)
                )
                assert dot(h, fan.ray(i)) == det

    @pytest.mark.parametrize("fan", oracle_fans())
    def test_pic_inverse(self, fan):
        st = pic_structure(fan)
        # the coordinates are rows k.. of the Smith U: the torsion rows, then the free ones
        u = exactlin.smith_normal_form(fan.rays)[1]
        k = fan.rank - len(st.torsion)
        assert st.u == u[k:]
        assert st.u_inv == tuple(row[k:] for row in invert(u))
        size = len(st.torsion) + st.free_rank
        assert len(st.u) == len(st.u_inv[0]) == size
        assert exactlin.mat_mul_int(st.u, st.u_inv) == tuple(
            tuple(int(i == j) for j in range(size)) for i in range(size)
        )

    @pytest.mark.parametrize("fan", oracle_fans())
    def test_smith_diagonal_is_a_divisibility_chain(self, fan):
        s = exactlin.smith_normal_form(fan.rays)[0]
        diag = [s[i][i] for i in range(fan.rank)]
        assert all(d > 0 for d in diag)
        assert all(b % a == 0 for a, b in zip(diag, diag[1:]))

    @pytest.mark.parametrize("fan", oracle_fans())
    def test_cone_systems(self, fan):
        rng = random.Random(fan_to_json(fan))
        psi = pl_function([rng.randint(-5, 5) for _ in range(fan.nrays)])
        # the package's integer (det, adj) parts against the Fraction routes
        for cone, (d, a) in zip(fan.max_cones, _linear_parts(fan, psi.values)):
            rows = [fan.ray(i) for i in sorted(cone)]
            b = [psi.values[i - 1] for i in sorted(cone)]
            form = tuple(Fraction(x, d) for x in a)
            assert form == solve_square(rows, b) == cone_linear_part(fan, psi, cone)
        s = rng.randint(1, fan.nrays)
        rows = []
        for cone in sorted(fan.max_cones, key=sorted):
            at = [list(col) for col in zip(*(fan.ray(i) for i in sorted(cone)))]
            u = solve_square(at, fan.ray(s))
            row = [0] * fan.nrays
            for i, x in zip(sorted(cone), u):
                row[i - 1] = x
            rows.append(row)
        # each basis vector is the primitive positive multiple of the oracle's
        basis = rational_kernel(rows, fan.nrays)
        ints, dim = degenerate_space(fan, s)
        assert dim == len(ints) == len(basis)
        for vec, ref in zip(ints, basis):
            assert all(type(x) is int for x in vec) and gcd(*vec) == 1
            t = next(Fraction(x) / y for x, y in zip(vec, ref) if y)
            assert t > 0 and all(x == t * y for x, y in zip(vec, ref))


def broken_variants(fan):
    """Copies of the fan, each changed once: a ray negated, the vectors of
    two rays swapped, a cone listed twice, a cone dropped, a third cone put
    on a facet of a cone and, from rank 3 on, a ray of a cone moved to the
    sum of two others of that cone.

    The rays and the cone are drawn by a generator seeded with the fan.
    """
    rng = random.Random(fan_to_json(fan))
    rays, cones = list(fan.rays), list(fan.max_cones)
    i, j = rng.sample(range(fan.nrays), 2)
    k = rng.randrange(len(cones))

    def with_rays(changes):
        new = rays.copy()
        for at, v in changes.items():
            new[at] = tuple(v)
        return StackyFan(fan.rank, tuple(new), fan.max_cones)

    out = [
        with_rays({i: [-x for x in rays[i]]}),
        with_rays({i: rays[j], j: rays[i]}),
        StackyFan(fan.rank, fan.rays, tuple(cones + [cones[k]])),
        StackyFan(fan.rank, fan.rays, tuple(cones[:k] + cones[k + 1:])),
    ]
    facet = cones[k] - {rng.choice(sorted(cones[k]))}
    others = set(range(1, fan.nrays + 1)).difference(*(c for c in cones if facet < c))
    if others:
        third = facet | {rng.choice(sorted(others))}
        out.append(StackyFan(fan.rank, fan.rays, tuple(cones + [third])))
    if fan.rank >= 3:
        a, b, c = rng.sample(sorted(cones[k]), 3)
        out.append(with_rays({a - 1: [x + y for x, y in zip(fan.ray(b), fan.ray(c))]}))
    return out


def verdict(check, fan):
    """None when check accepts the fan, else the text of its FanValidationError."""
    try:
        check(fan)
    except FanValidationError as exc:
        return str(exc)
    return None


class TestValidationOracle:
    """fan.validate against the Fraction adjugate route of tests/oracles.py."""

    @pytest.mark.parametrize("fan", complete_fans() + stellar_fans())
    def test_same_verdict_and_text(self, fan):
        assert verdict(validate_oracle, fan) is None
        for broken in broken_variants(fan):
            assert verdict(validate, broken) == verdict(validate_oracle, broken), broken

    @pytest.mark.parametrize("spec", covers())
    def test_covers(self, spec):
        rank, rays, cones = spec
        fan = StackyFan(rank, tuple(map(tuple, rays)), tuple(map(frozenset, cones)))
        text = verdict(validate, fan)
        assert "overlap" in text and text == verdict(validate_oracle, fan)

    def test_every_check_is_reached(self):
        # the variants reach every refusal of validate after the ray
        # lengths but overlap, which the covers reach, and some swaps of
        # two rays keep the fan valid
        stages = ("duplicate ray", "same 1-cone", "not simplicial", "duplicate maximal",
                  "unused", "unpaired", "shared by more", "separate")
        seen = set()
        for param in complete_fans() + stellar_fans():
            for broken in broken_variants(param.values[0]):
                text = verdict(validate, broken)
                seen.add(text and next(w for w in stages if w in text))
        assert seen == set(stages) | {None}


# factors of the generated products: the catalog fans that a weighted
# stellar subdivision can refine (in rank 1 it would repeat a 1-cone)
FACTORS = [n for n in catalog_names() if catalog_fan(n).rank >= 2]


@st.composite
def subdivided_pairs(draw):
    """Two randomly weighted stellar subdivisions of catalog fans, X x Y of rank 4-6 with 9-12 rays."""
    factors = [catalog_fan(draw(st.sampled_from(FACTORS))) for _ in range(2)]
    room = 12 - sum(f.nrays for f in factors)
    extra = draw(st.integers(max(0, room - 3), room))
    first = draw(st.integers(0, extra))
    out = []
    for fan, times in zip(factors, (first, extra - first)):
        for _ in range(times):
            cone = draw(st.sampled_from(sorted(fan.max_cones, key=sorted)))
            fan = stellar(fan, cone, draw(st.lists(st.integers(1, 3), min_size=fan.rank, max_size=fan.rank)))
        out.append(fan)
    return tuple(out)


def classes(fan):
    """Coefficient vectors in [-3, 3], whose cohomology is spread over the Delta rows."""
    return st.lists(st.integers(-3, 3), min_size=fan.nrays, max_size=fan.nrays)


def assert_serre_duality(fan, a):
    # omega = O(-sum D_i), so h^i(a) = h^(m-i)(omega - a) = h^(m-i)(-a - 1)
    assert cohomology(fan, a)[::-1] == cohomology(fan, [-x - 1 for x in a]), a


class TestDualities:
    """Cohomology in every rank against two identities that need no second route."""

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(stellar_fans()), st.data())
    def test_serre_duality_on_stellar_fans(self, param, data):
        fan = param.values[0]
        assert_serre_duality(fan, data.draw(classes(fan)))

    @settings(max_examples=40, deadline=None)
    @given(subdivided_pairs(), st.data())
    def test_serre_duality_on_products(self, pair, data):
        fan = product_fan(*pair)
        assert 4 <= fan.rank <= 6 and 9 <= fan.nrays <= 12
        assert_serre_duality(fan, data.draw(classes(fan)))

    @settings(max_examples=40, deadline=None)
    @given(subdivided_pairs(), st.data())
    def test_kunneth_on_products(self, pair, data):
        # the product's rays are those of X, then those of Y
        x, y = pair
        a, b = data.draw(classes(x)), data.draw(classes(y))
        assert cohomology(product_fan(x, y), a + b) == h_product(cohomology(x, a), cohomology(y, b)), (a, b)
