"""Cohomology dimensions, H-triviality, interiors, and box scans."""

import concurrent.futures
import os
import random
from fractions import Fraction
from itertools import combinations

import pytest

from stackycoh import cohomline
from stackycoh.catalog import catalog_fan, catalog_names
from stackycoh.cli import main
from stackycoh.cohomline import (
    CapExceededError,
    ForbiddenCone,
    Limits,
    PropernessError,
    _delta_table,
    _feasible,
    box_classes,
    cohomology,
    first_outside_interiors,
    forbidden_cone,
    h_trivial_flags,
    is_h_trivial,
    outside_all_interiors,
    scan_h_trivial,
)
from stackycoh.exactlin import DEFAULT_CAP, build_tower, tower_points
from stackycoh.fan import StackyFan, load_fan
from stackycoh.homology import DEFAULT_DELTA_CAP, DeltaCapError, delta_family, delta_set
from stackycoh.picard import class_of, pic_structure

from fangen import BENCH_FANS
from oracles import (
    brute_cohomology,
    fm_bounded,
    fm_feasible,
    fm_points,
    h_p1,
    h_p2,
    h_product,
    sign_rhs,
    sign_system,
    tower_bounded,
    tower_feasible,
)
from test_generated_fans import stellar_fans
from test_plsearch import antiprism_fan


def _row(fan, I):
    """The row of the fan's Delta table that belongs to I."""
    return next(row for row in _delta_table(fan).rows if row.index_set == I)


def _feasible_row(fan, I, a, strict=False):
    """Whether the mask decision keeps the row of I.

    That is, whether the weak system of a is rationally feasible, or with
    strict, whether the open cone of I holds a.
    """
    return any(row.index_set == I for row in _feasible(_delta_table(fan), a, strict))


# stellar subdivisions with 20, 40 and 37 circuits: masks of 40, 80 and 74 bits
WIDE_MASKS = {
    p.id: p.values[0] for p in stellar_fans()
    if p.id in {"stellar-p1xp1xp1xp1", "stellar-cyclic5xp1xp1", "stellar-p1xp1xp1xp1xp1"}
}


def parallel_scan_fans():
    """p1xp1, the two torsion catalog fans, and three torsion stellar subdivisions."""
    torsion = [p for p in stellar_fans() if pic_structure(p.values[0]).torsion]
    names = ("p1xp1", "p1_22", "p2_221")
    return [pytest.param(catalog_fan(n), id=n) for n in names] + torsion[:2] + torsion[-1:]


def _shifted(fan, a, w):
    return [
        a[i] + sum(w[j] * fan.rays[i][j] for j in range(fan.rank))
        for i in range(fan.nrays)
    ]


class TestAgainstClosedForms:
    def test_p1_line_bundles(self):
        fan = catalog_fan("p1")
        assert cohomology(fan, (-2, 0)) == (0, 1)
        for d in range(-8, 9):
            assert cohomology(fan, (d, 0)) == h_p1(d)

    def test_p2_line_bundles(self):
        fan = catalog_fan("p2")
        assert cohomology(fan, (1, 0, 0)) == (3, 0, 0)
        assert cohomology(fan, (-3, 0, 0)) == (0, 0, 1)
        for d in range(-9, 9):
            assert cohomology(fan, (d, 0, 0)) == h_p2(d)

    def test_p1xp1_products(self):
        fan = catalog_fan("p1xp1")
        for a in range(-5, 5):
            for b in range(-5, 5):
                expected = h_product(h_p1(a), h_p1(b))
                assert cohomology(fan, (a, 0, b, 0)) == expected

    def test_p1xp2_products(self):
        fan = catalog_fan("p1xp2")
        for a in range(-4, 4):
            for b in range(-5, 4):
                expected = h_product(h_p1(a), h_p2(b))
                assert cohomology(fan, (a, 0, b, 0, 0)) == expected


class TestAgainstBruteForce:
    @pytest.mark.parametrize(
        "name", ["p2", "p2_221", "p1xp1", "hirzebruch1", "quad4", "cyclic5"]
    )
    def test_random_classes_match_direct_sum(self, name):
        rng = random.Random(int.from_bytes(name.encode(), "big") % 2**32)
        fan = catalog_fan(name)
        for _ in range(8):
            a = [rng.randint(-3, 3) for _ in range(fan.nrays)]
            assert cohomology(fan, a) == brute_cohomology(fan, a, 14), a

    def test_3d_spot_checks(self):
        fan = catalog_fan("p3_2111")
        for a in [(0, 0, 0, 0), (-1, -1, 0, 0), (2, 0, 0, -1), (-2, 1, -1, 0)]:
            assert cohomology(fan, a) == brute_cohomology(fan, a, 10)


class TestStructureSheaf:
    @pytest.mark.parametrize("name", catalog_names())
    def test_trivial_class_has_only_h0(self, name):
        fan = catalog_fan(name)
        assert cohomology(fan, (0,) * fan.nrays) == (1,) + (0,) * fan.rank


class TestHTriviality:
    def test_p2_known_classes(self):
        fan = catalog_fan("p2")
        assert is_h_trivial(fan, (-1, 0, 0))
        assert is_h_trivial(fan, (-2, 0, 0))
        assert not is_h_trivial(fan, (0, 0, 0))
        assert not is_h_trivial(fan, (-3, 0, 0))

    def test_equivalent_to_zero_vector(self):
        rng = random.Random(29)
        for name in catalog_names():
            fan = catalog_fan(name)
            for _ in range(25):
                a = [rng.randint(-4, 4) for _ in range(fan.nrays)]
                vanishes = not any(cohomology(fan, a))
                assert is_h_trivial(fan, a) == vanishes
                assert (forbidden_cone(fan, a) is None) == vanishes

    def test_forbidden_cone_on_structure_sheaf(self):
        fan = catalog_fan("p2")
        assert forbidden_cone(fan, (0, 0, 0)) == ForbiddenCone(frozenset({1, 2, 3}), (0, 0))
        assert forbidden_cone(fan, (-1, 0, 0)) is None

    def test_forbidden_witness_realizes_sign_pattern(self):
        rng = random.Random(31)
        for name in ["p2", "p1xp1", "p1xp2", "p2_221"]:
            fan = catalog_fan(name)
            for _ in range(20):
                a = [rng.randint(-4, 4) for _ in range(fan.nrays)]
                fc = forbidden_cone(fan, a)
                if fc is None:
                    assert is_h_trivial(fan, a)
                    continue
                for i in range(1, fan.nrays + 1):
                    val = a[i - 1] + sum(
                        fc.witness[j] * fan.rays[i - 1][j]
                        for j in range(fan.rank)
                    )
                    assert (val >= 0) == (i in fc.index_set)

    def test_cap_error_names_the_cap(self):
        fan = catalog_fan("p2")
        with pytest.raises(CapExceededError, match="cap 3"):
            cohomology(fan, (9, 0, 0), Limits(cap=3))

    def test_forbidden_cone_stops_at_the_first_point(self):
        # the count of O(9) on P2 runs past the cap 3, the first witness does not
        fan = catalog_fan("p2")
        fc = forbidden_cone(fan, (9, 0, 0), Limits(cap=3))
        assert fc == forbidden_cone(fan, (9, 0, 0))
        assert fc.index_set == frozenset({1, 2, 3}) and fc.witness == (-9, 0)
        with pytest.raises(CapExceededError, match=r"cap 1 on index set \[1, 2, 3\]"):
            forbidden_cone(fan, (9, 0, 0), Limits(cap=1))


class TestLimits:
    def test_defaults(self):
        assert Limits() == Limits(cap=DEFAULT_CAP, delta_cap=DEFAULT_DELTA_CAP)

    @pytest.mark.parametrize("field", ["cap", "delta_cap"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_nonpositive_value_refused(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be positive$"):
            Limits(**{field: value})

    @pytest.mark.parametrize("field", ["cap", "delta_cap"])
    @pytest.mark.parametrize("value,entry", [
        (2.5, "2.5"), (-0.5, "-0.5"), (Fraction(3, 1), r"Fraction\(3, 1\)"), ("3", "'3'"), (None, "None"),
    ])
    def test_non_integer_value_refused(self, field, value, entry):
        # Limits(cap=2.5) acted as a cap of 2, delta_cap=1.5 was accepted,
        # and cap="3" failed on a bare comparison of str and int; the type
        # is checked before the sign
        with pytest.raises(TypeError, match=rf"^integer {field} expected, got the entry {entry}$"):
            Limits(**{field: value})

    def test_frozen(self):
        with pytest.raises(AttributeError):
            Limits().cap = 5

    @pytest.mark.parametrize("call", [
        lambda fan, lim: cohomology(fan, (0,) * fan.nrays, lim),
        lambda fan, lim: is_h_trivial(fan, (0,) * fan.nrays, lim),
        lambda fan, lim: forbidden_cone(fan, (0,) * fan.nrays, lim),
        lambda fan, lim: outside_all_interiors(fan, (0,) * fan.nrays, lim),
        lambda fan, lim: scan_h_trivial(fan, (-1, 1), lim),
        lambda fan, lim: scan_h_trivial(fan, (-1, 1), lim, workers=2),
    ], ids=["cohomology", "is_h_trivial", "forbidden_cone",
            "outside_all_interiors", "scan", "scan_pool"])
    def test_delta_cap_reaches_delta(self, call):
        with pytest.raises(DeltaCapError, match="cap 2"):
            call(catalog_fan("p1xp1"), Limits(delta_cap=2))

    def test_cap_reaches_scan_pool(self):
        fan = catalog_fan("p1xp1")
        with pytest.raises(CapExceededError, match="cap 1"):
            scan_h_trivial(fan, (-1, 1), Limits(cap=1), workers=2)


class TestSignPolyhedra:
    def test_weak_integer_implies_rational(self):
        # integer feasibility of the weak system is stronger than
        # rational feasibility; check on random classes and index sets
        rng = random.Random(37)
        for name in ["p2", "p1xp1", "p1xp2"]:
            fan = catalog_fan(name)
            for I, _ in delta_family(fan):
                for _ in range(10):
                    a = [rng.randint(-4, 4) for _ in range(fan.nrays)]
                    if _row(fan, I).points(a, DEFAULT_CAP, first_only=True):
                        assert fm_feasible(sign_system(fan, a, I))

    def test_strict_system_uses_strict_rows(self):
        # f(v_i) >= 0 on the three rays of P2 holds at f = 0 only, so the
        # weak system of I = {1, 2, 3} has a point and the strict one none
        fan = catalog_fan("p2")
        I = frozenset({1, 2, 3})
        assert _row(fan, I).points((0, 0, 0), DEFAULT_CAP) == ((0, 0),)
        assert _feasible_row(fan, I, (0, 0, 0))
        assert not _feasible_row(fan, I, (0, 0, 0), strict=True)
        assert _feasible_row(fan, I, (1, 1, 1), strict=True)


class TestTowerAgainstOracle:
    """The towers behind the sign systems against unpruned Fraction FM."""

    @pytest.mark.parametrize("name", catalog_names() + ("antiprism",))
    def test_boundedness_on_every_index_set(self, name):
        fan = antiprism_fan() if name == "antiprism" else catalog_fan(name)
        zero = (0,) * fan.nrays
        for size in range(fan.nrays + 1):
            for I in combinations(range(1, fan.nrays + 1), size):
                rows = tuple(
                    v if i in I else tuple(-x for x in v)
                    for i, v in enumerate(fan.rays, 1)
                )
                tower = build_tower(rows, fan.rank)
                expected = fm_bounded(sign_system(fan, zero, I))
                assert tower_bounded(tower) == expected, I

    @pytest.mark.parametrize(
        "name", [n for n in catalog_names() if catalog_fan(n).rank in (2, 3)]
    )
    def test_points_existence_and_interiors(self, name):
        rng = random.Random(sum(name.encode()))
        fan = catalog_fan(name)
        for _ in range(3):
            a = [rng.randint(-6, 6) for _ in range(fan.nrays)]
            for I, _ in delta_family(fan):
                weak = sign_system(fan, a, I)
                points, visited = fm_points(weak)
                row = _row(fan, I)
                res = row.points(a, DEFAULT_CAP)
                assert res == tuple(points), (a, I)
                # the cap is spent once per candidate, as the oracle counts
                if visited:
                    assert row.points(a, visited) == res
                    with pytest.raises(CapExceededError):
                        row.points(a, visited - 1)
                first, _ = fm_points(weak, first_only=True)
                ex = row.points(a, DEFAULT_CAP, first_only=True)
                assert ex == tuple(first)
                assert bool(ex) == bool(points)
                assert _feasible_row(fan, I, a) == fm_feasible(weak)
                strict = sign_system(fan, a, I, strict=True)
                assert _feasible_row(fan, I, a, strict=True) == fm_feasible(strict)


class TestIntegerCoefficients:
    # int() used to truncate these: cohomology(p2, (0.9, 0, 0)) gave (1, 0, 0),
    # Fraction(3, 2) gave (3, 0, 0), and (0.5, 0, 0) lay outside all interiors
    @pytest.mark.parametrize("a", [(0.9, 0, 0), (Fraction(3, 2), 0, 0), (0.5, 0, 0)])
    @pytest.mark.parametrize("call", [
        cohomology, is_h_trivial, forbidden_cone, outside_all_interiors,
    ], ids=["cohomology", "is_h_trivial", "forbidden_cone", "outside_all_interiors"])
    def test_refused_not_truncated(self, call, a):
        with pytest.raises(TypeError, match=r"^integer coefficients expected, got the entry"):
            call(catalog_fan("p2"), a)

    def test_error_names_the_entry(self):
        with pytest.raises(TypeError, match=r"the entry Fraction\(3, 2\)$"):
            cohomology(catalog_fan("p2"), (0, Fraction(3, 2), 0))

    def test_length_still_checked_first(self):
        with pytest.raises(ValueError, match="ray count"):
            cohomology(catalog_fan("p2"), (0.5, 0))

    @pytest.mark.parametrize("box,entry", [
        (((-1.7, 1.9),), "-1.7"),
        ((-1, 1.9), "1.9"),
        (((0, 1), (Fraction(1, 2), 1)), r"Fraction\(1, 2\)"),
    ])
    def test_box_bounds_refused_not_truncated(self, box, entry):
        # int() used to truncate them: ((-1.7, 1.9),) scanned (-1, 1)
        with pytest.raises(TypeError, match=rf"^integer box bounds expected, got the entry {entry}$"):
            scan_h_trivial(catalog_fan("p1xp1"), box)


class TestBatches:
    # zip would truncate a canonical point of the wrong length: the points
    # of P2 have one coordinate, and a batch is checked before its table
    @pytest.mark.parametrize("call", [h_trivial_flags, first_outside_interiors])
    @pytest.mark.parametrize("points,got", [([(0, 0)], 2), ([()], 0), ([(0,), (1, 2, 3)], 3)])
    def test_wrong_length_refused(self, call, points, got):
        with pytest.raises(ValueError, match=f"^canonical point length must be 1, got {got}$"):
            call(catalog_fan("p2"), points, Limits(delta_cap=1))

    @pytest.mark.parametrize("call,expected", [(h_trivial_flags, []), (first_outside_interiors, None)])
    def test_empty_batch_touches_no_table(self, call, expected):
        # a Delta cap of 1 refuses every table of P2
        assert call(catalog_fan("p2"), [], Limits(delta_cap=1)) == expected


class TestDeltaTable:
    def test_towers_built_only_for_walked_pairs(self, monkeypatch, capsys):
        # a count of the work, independent of the machine's speed: the
        # 3-class antiprism scan walks 2 of the 82 rows, each building its
        # own tower, the report walks none, and a repeated call builds nothing
        built, walked = [], []

        def counted_build(rows, nvars):
            built.append(rows)
            return build_tower(rows, nvars)

        def counted_walk(tower, b, cap, first_only=False):
            walked.append(tower)
            return tower_points(tower, b, cap, first_only)

        monkeypatch.setattr(cohomline, "build_tower", counted_build)
        monkeypatch.setattr(cohomline, "tower_points", counted_walk)
        _delta_table.cache_clear()
        fan = antiprism_fan()
        box = ((-1, 1), (0, 0), (0, 0), (0, 0), (0, 0))
        found = scan_h_trivial(fan, box)
        # only a walk asks a row for its tower, so the rows holding one were walked
        held = [row for row in _delta_table(fan).rows if "tower" in vars(row)]
        assert {id(vars(row)["tower"]) for row in held} == set(map(id, walked))
        assert len(built) == len(held) == 2
        built.clear()
        assert scan_h_trivial(fan, box) == found
        assert built == []

        _delta_table.cache_clear()
        argv = ["report", str(BENCH_FANS / "antiprism.json"), "--box=-1:1,0:0,0:0,0:0,0:0"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert built == []
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert built == []

    @pytest.mark.parametrize("name", ["p1xp2", "cyclic5", "antiprism", *WIDE_MASKS])
    def test_tower_walked_only_when_rationally_feasible(self, monkeypatch, name):
        # the dot products decide rational feasibility; a point count walks
        # exactly the towers of the rationally feasible weak systems, and
        # a class lies outside all interiors exactly when no strict system
        # is rationally feasible
        walked = []

        def counted(tower, b, cap, first_only=False):
            walked.append(tower)
            return tower_points(tower, b, cap, first_only)

        monkeypatch.setattr(cohomline, "tower_points", counted)
        if name in WIDE_MASKS:
            fan = WIDE_MASKS[name]
        else:
            fan = antiprism_fan() if name == "antiprism" else catalog_fan(name)
        rows = _delta_table(fan).rows
        strict = (True,) * fan.nrays
        rng = random.Random(name)
        # small classes too, which lie outside all interiors more often
        for radius in (4,) * 10 + (1,) * 10:
            a = tuple(rng.randint(-radius, radius) for _ in range(fan.nrays))
            walked.clear()
            cohomology(fan, a)
            feasible = [
                row.tower for row in rows if tower_feasible(row.tower, sign_rhs(a, row.index_set))
            ]
            assert len(walked) == len(feasible) and all(
                x is y for x, y in zip(walked, feasible)
            ), a
            interior = [
                row for row in rows
                if tower_feasible(row.tower, sign_rhs(a, row.index_set, strict=True), strict)
            ]
            assert list(_feasible(_delta_table(fan), a, strict=True)) == interior, a
            assert outside_all_interiors(fan, a) == (interior == []), a

    @pytest.mark.parametrize("fan,a,I", [
        ("p1_22", (0, -2), ()),
        ("p2_221", (-1, 1, 0), (1, 2, 3)),
        ("antiprism", (0, 0, -1, -2, 0, 0, 0, 0), (1, 2, 6, 7)),
    ])
    def test_shortcut_skips_rows_without_unit_pivots(self, fan, a, I):
        # weakly feasible rows whose towers lack unit pivots and hold no
        # lattice point: answering them from the masks would call the
        # class not H-trivial
        fan = load_fan((BENCH_FANS / "antiprism.json").read_text()) if fan == "antiprism" else catalog_fan(fan)
        row = _row(fan, frozenset(I))
        assert _feasible_row(fan, row.index_set, a)
        assert not row.unit
        assert tower_points(row.tower, sign_rhs(a, row.index_set)) == ()
        assert is_h_trivial(fan, a)
        cls = class_of(fan, a)
        assert h_trivial_flags(fan, [cls.point]) == [True]
        found = scan_h_trivial(fan, [(x, x) for x in cls.free])
        assert (cls.free, cls.torsion) in {(c.free, c.torsion) for c in found}

    def test_rows_follow_delta(self):
        fan = antiprism_fan()
        assert [(row.index_set, row.betti) for row in _delta_table(fan).rows] == list(
            delta_set(fan)
        )


class TestInteriors:
    def test_negative_degree_sits_inside_empty_set_cone(self):
        fan = catalog_fan("p2")
        assert _feasible_row(fan, frozenset(), (-1, 0, 0), strict=True)
        assert _feasible_row(fan, frozenset(), (-5, 0, 0), strict=True)
        assert not _feasible_row(fan, frozenset(), (0, 0, 0), strict=True)

    def test_outside_all_interiors_examples(self):
        p2 = catalog_fan("p2")
        p1xp1 = catalog_fan("p1xp1")
        assert outside_all_interiors(p1xp1, (0, 0, -1, 0))
        assert outside_all_interiors(p2, (0, 0, 0))
        assert not outside_all_interiors(p2, (-5, 0, 0))
        assert not outside_all_interiors(p2, (3, 0, 0))

    def test_p1xp2_outside_iff_some_factor_degree_zero(self):
        fan = catalog_fan("p1xp2")
        for a in range(-3, 4):
            for b in range(-4, 3):
                expected = a == 0 or b == 0
                got = outside_all_interiors(fan, (a, 0, b, 0, 0))
                assert got == expected, (a, b)


class TestScans:
    def test_p2_frozen(self):
        found = scan_h_trivial(catalog_fan("p2"), (-12, 12))
        assert [c.free for c in found] == [(-2,), (-1,)]

    def test_p3_frozen(self):
        found = scan_h_trivial(catalog_fan("p3"), (-12, 12))
        assert [c.free for c in found] == [(-3,), (-2,), (-1,)]

    def test_p1xp1_cross_shape(self):
        found = scan_h_trivial(catalog_fan("p1xp1"), (-3, 3))
        expected = sorted(
            {(a, b) for a in range(-3, 4) for b in range(-3, 4)
             if a == -1 or b == -1}
        )
        assert sorted(c.free for c in found) == expected

    def test_torsion_residues_enumerated(self):
        fan = catalog_fan("p1_22")
        boxed = box_classes(fan, (-1, 1))
        assert len(boxed) == 6  # three free values times two residues
        found = scan_h_trivial(fan, (-2, 2))
        assert len(found) > 0
        for c in found:
            assert not any(cohomology(fan, c.raw))

    @pytest.mark.parametrize("fan", parallel_scan_fans())
    def test_parallel_scan_matches_serial(self, fan):
        box = (-4, 4) if fan.rank <= 2 else (-2, 2)
        serial = scan_h_trivial(fan, box)
        assert serial
        assert scan_h_trivial(fan, box, workers=2) == serial

    @pytest.mark.parametrize("cores", [None, 1, 3, 64])
    def test_workers_clamped_to_cores_and_classes(self, monkeypatch, cores):
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *args):
                return map(fn, *args)

        # scan_h_trivial imports the pool from concurrent.futures when it needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        if cores is not None:
            monkeypatch.setattr(os, "cpu_count", lambda: cores)
        fan = catalog_fan("p1xp1")
        found = scan_h_trivial(fan, (-1, 1), workers=4096)  # 9 classes
        assert found == scan_h_trivial(fan, (-1, 1))
        expected = min(os.cpu_count() or 1, 9)
        assert sizes == ([expected] if expected > 1 else [])

    def test_table_errors_come_before_the_pool(self, monkeypatch):
        # the parent builds the table, so a refused fan starts no worker
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        with pytest.raises(DeltaCapError):
            scan_h_trivial(catalog_fan("p1xp1"), (-1, 1), Limits(delta_cap=1), workers=2)
        assert sizes == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cap_edges_on_p1xp1xp1(self, workers):
        # a rank-3 walk spends one candidate per level on a unit row: the
        # shortcut needs a cap of 3, and below it the walk raises as before
        fan = catalog_fan("p1xp1xp1")
        with pytest.raises(CapExceededError, match="cap 2 "):
            scan_h_trivial(fan, (-1, 1), Limits(cap=2), workers=workers)
        found = scan_h_trivial(fan, (-1, 1), Limits(cap=3), workers=workers)
        assert found and found == scan_h_trivial(fan, (-1, 1))

    def test_box_validation(self):
        with pytest.raises(ValueError):
            scan_h_trivial(catalog_fan("p2"), (3, -3))
        with pytest.raises(ValueError):
            scan_h_trivial(catalog_fan("p1xp1"), ((0, 1), (0, 1), (0, 1)))


class TestRepresentativeInvariance:
    def test_cohomology_constant_on_classes(self):
        rng = random.Random(41)
        for name in catalog_names():
            fan = catalog_fan(name)
            for _ in range(15):
                a = [rng.randint(-4, 4) for _ in range(fan.nrays)]
                w = [rng.randint(-5, 5) for _ in range(fan.rank)]
                assert cohomology(fan, a) == cohomology(fan, _shifted(fan, a, w))


class TestPropernessGuard:
    # built directly to bypass completeness validation: a single quadrant
    # cone leaves the weak system unbounded with lattice points, which a
    # complete fan never does
    QUADRANT = StackyFan(rank=2, rays=((1, 0), (0, 1)), max_cones=(frozenset({1, 2}),))
    # rays in the plane z = 0: the circuits cover every ray, but the
    # z-axis solves every homogeneous system, so only the span check
    # refuses them
    PLANAR = StackyFan(
        rank=3,
        rays=((1, 0, 0), (0, 1, 0), (-1, -1, 0), (1, 1, 0)),
        max_cones=(frozenset({1, 2, 4}), frozenset({2, 3, 4}), frozenset({1, 3, 4})),
    )

    @pytest.mark.parametrize(
        "decide",
        [cohomology, is_h_trivial, forbidden_cone, outside_all_interiors],
        ids=lambda f: f.__name__,
    )
    def test_rays_that_do_not_span_are_refused(self, decide):
        with pytest.raises(
            PropernessError, match=r"^infinite-dimensional contribution from index set \[\]$"
        ):
            decide(self.PLANAR, (0, 0, 0, 0))

    def test_incomplete_fan_triggers_unbounded_error(self):
        with pytest.raises(PropernessError, match="infinite-dimensional"):
            cohomology(self.QUADRANT, (0, 0))

    @pytest.mark.parametrize(
        "decide",
        [is_h_trivial, forbidden_cone, outside_all_interiors, scan_h_trivial],
        ids=lambda f: f.__name__,
    )
    def test_every_entry_point_refuses_the_unbounded_system(self, decide):
        # the Delta table refuses the unbounded tower when it is built, so
        # the searches that stop at a first point and the interior test
        # refuse it as cohomology does; the quadrant's box is a single class
        with pytest.raises(
            PropernessError, match=r"^infinite-dimensional contribution from index set \[\]$"
        ):
            decide(self.QUADRANT, (0, 0))
