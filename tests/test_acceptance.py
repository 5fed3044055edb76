"""Acceptance suite: nine exact end-to-end checks with runtime budgets.

Each check prints one PASS or FAIL verdict line (through the disabled
capture context, so the line is visible in plain pytest runs) and then
asserts both the mathematical statement and its time budget.
"""

import itertools
import random
import time

from stackycoh.catalog import catalog_fan, catalog_names
from stackycoh.cohomline import (
    box_classes,
    cohomology,
    outside_all_interiors,
    scan_h_trivial,
)
from stackycoh.fan import collinear_pairs
from stackycoh.homology import delta_family
from stackycoh.picard import class_of, pic_structure
from stackycoh.plsearch import (
    FINITELY_MANY,
    INFINITELY_MANY,
    criterion_report,
    family_class,
    find_degenerate_psi,
    normalize_at_ray,
    pl_function,
    sign_changes,
)

from oracles import complex_CI, reduced_betti


def _verdict(capsys, ok, number, label, detail, elapsed, budget):
    line = (
        f"{'PASS' if ok else 'FAIL'} criterion {number} ({label}): "
        f"{detail} [{elapsed:.2f}s / budget {budget:.0f}s]"
    )
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line
    assert elapsed < budget, line


def _canonical(cls):
    return (cls.free, cls.torsion)


def test_criterion_1_projective_space_vanishing(capsys):
    expected = {"p2": (-1, -2), "p3": (-1, -2, -3)}
    details = []
    for name, degrees in expected.items():
        fan = catalog_fan(name)
        start = time.perf_counter()
        found = {_canonical(c) for c in scan_h_trivial(fan, ((-12, 12),))}
        elapsed = time.perf_counter() - start
        zeros = (0,) * (fan.nrays - 1)
        want = {_canonical(class_of(fan, (d,) + zeros)) for d in degrees}
        detail = f"{name} twists {sorted(degrees, reverse=True)}"
        details.append(detail)
        _verdict(capsys, found == want, 1, "projective vanishing", detail,
                 elapsed, 10.0)


def test_criterion_2_index_family_reproduction(capsys):
    start = time.perf_counter()
    sets = {I for I, _ in delta_family(catalog_fan("cyclic5"))}
    in13 = frozenset({1, 3}) in sets
    out12 = frozenset({1, 2}) not in sets
    in523 = frozenset({5, 2, 3}) in sets
    elapsed = time.perf_counter() - start
    ok = in13 and out12 and in523
    _verdict(capsys, ok, 2, "pentagon index family",
             "{1,3} in, {1,2} out, {5,2,3} in", elapsed, 1.0)


def test_criterion_3_duality_suite(capsys):
    fans = ["p2", "p1xp1", "cyclic5", "p3", "p1xp2", "p1xp1xp1"]
    start = time.perf_counter()
    checked = 0
    ok = True
    for name in fans:
        fan = catalog_fan(name)
        universe = range(1, fan.nrays + 1)
        for size in range(fan.nrays + 1):
            for combo in itertools.combinations(universe, size):
                index_set = frozenset(combo)
                complement = frozenset(universe) - index_set
                left = reduced_betti(complex_CI(fan, index_set), fan.rank)
                right = reduced_betti(complex_CI(fan, complement), fan.rank)
                ok = ok and left == tuple(reversed(right))
                checked += 1
    elapsed = time.perf_counter() - start
    _verdict(capsys, ok, 3, "homological duality",
             f"{len(fans)} fans, {checked} index-set pairs", elapsed, 60.0)


def test_criterion_4_constructive_families(capsys):
    for name in ("p1xp1", "p1xp2", "p1xp1xp1"):
        fan = catalog_fan(name)
        start = time.perf_counter()
        found = find_degenerate_psi(fan)
        ok = found is not None
        classes = set()
        if ok:
            s, psi = found
            for r in range(-5, 6):
                cls = family_class(fan, s, psi, r)
                h = cohomology(fan, cls.raw)
                ok = ok and not any(h)
                classes.add(_canonical(cls))
            ok = ok and len(classes) == 11
        elapsed = time.perf_counter() - start
        _verdict(capsys, ok, 4, "degenerate family",
                 f"{name}: 11 distinct H-trivial classes", elapsed, 30.0)


def test_criterion_5_rank_two_criterion(capsys):
    names = [n for n in catalog_names() if catalog_fan(n).rank == 2]
    start = time.perf_counter()
    ok = len(names) >= 6
    with_pairs = 0
    for name in names:
        fan = catalog_fan(name)
        has_pair = bool(collinear_pairs(fan))
        with_pairs += has_pair
        ok = ok and (find_degenerate_psi(fan) is not None) == has_pair
    elapsed = time.perf_counter() - start
    ok = ok and 0 < with_pairs < len(names)
    _verdict(capsys, ok, 5, "rank-2 equivalence",
             f"{len(names)} fans, {with_pairs} with collinear pairs",
             elapsed, 10.0)


def test_criterion_6_rank_three_criterion(capsys):
    start = time.perf_counter()
    ok = True
    verdicts = []
    for name in catalog_names():
        fan = catalog_fan(name)
        if fan.rank != 3 or len(collinear_pairs(fan)) > 1:
            continue
        report = criterion_report(fan)
        has_psi = find_degenerate_psi(fan) is not None
        ok = ok and (report.verdict == INFINITELY_MANY) == has_psi
        verdicts.append(f"{name}={report.verdict}")
        if report.verdict == FINITELY_MANY:
            box = ((-6, 6),) * pic_structure(fan).free_rank
            scanned = {_canonical(c) for c in scan_h_trivial(fan, box)}
            census = {
                _canonical(cls)
                for cls in box_classes(fan, box)
                if not any(cohomology(fan, cls.raw))
            }
            ok = ok and scanned == census
    elapsed = time.perf_counter() - start
    _verdict(capsys, ok and len(verdicts) >= 5, 6, "rank-3 criterion",
             "; ".join(verdicts), elapsed, 120.0)


def test_criterion_7_structure_sheaf(capsys):
    start = time.perf_counter()
    ok = True
    for name in catalog_names():
        fan = catalog_fan(name)
        h = cohomology(fan, (0,) * fan.nrays)
        ok = ok and h == (1,) + (0,) * fan.rank
    elapsed = time.perf_counter() - start
    _verdict(capsys, ok, 7, "structure sheaf",
             f"h = (1, 0, ..., 0) on {len(list(catalog_names()))} fans",
             elapsed, 5.0)


def _two_sign_change_samples(fan, degrees_to_raw, rng, count):
    done = 0
    attempts = 0
    while done < count:
        attempts += 1
        if attempts > 4000:
            return False, done
        raw = degrees_to_raw(rng)
        if not outside_all_interiors(fan, raw):
            continue
        s = rng.randint(1, fan.nrays)
        g = normalize_at_ray(fan, pl_function(raw), s)
        if all(v == 0 for v in g.values):
            continue
        if any(
            g.values[i - 1] == 0
            for i in range(1, fan.nrays + 1)
            if i != s
        ):
            continue
        if sign_changes(fan, g, s) != 2:
            return False, done
        done += 1
    return True, done


def test_criterion_8_two_sign_changes(capsys):
    start = time.perf_counter()

    def sample_p1xp2(rng):
        if rng.random() < 0.5:
            return (0, 0, rng.randint(-4, 4), 0, 0)
        return (rng.randint(-4, 4), 0, 0, 0, 0)

    def sample_cube(rng):
        degs = [rng.randint(-4, 4) for _ in range(3)]
        degs[rng.randint(0, 2)] = 0
        return (degs[0], 0, degs[1], 0, degs[2], 0)

    ok1, n1 = _two_sign_change_samples(
        catalog_fan("p1xp2"), sample_p1xp2, random.Random(61), 20
    )
    ok2, n2 = _two_sign_change_samples(
        catalog_fan("p1xp1xp1"), sample_cube, random.Random(67), 20
    )
    elapsed = time.perf_counter() - start
    _verdict(capsys, ok1 and ok2, 8, "two sign changes",
             f"p1xp2 {n1} samples, p1xp1xp1 {n2} samples", elapsed, 30.0)


def test_criterion_9_representative_invariance(capsys):
    start = time.perf_counter()
    rng = random.Random(71)
    ok = True
    pairs = 0
    for name in catalog_names():
        fan = catalog_fan(name)
        for _ in range(100):
            a = tuple(rng.randint(-5, 5) for _ in range(fan.nrays))
            w = tuple(rng.randint(-3, 3) for _ in range(fan.rank))
            shifted = tuple(
                a[i]
                + sum(w[j] * fan.rays[i][j] for j in range(fan.rank))
                for i in range(fan.nrays)
            )
            ok = ok and cohomology(fan, a) == cohomology(fan, shifted)
            pairs += 1
    elapsed = time.perf_counter() - start
    _verdict(capsys, ok, 9, "representative invariance",
             f"{pairs} (class, shift) pairs", elapsed, 30.0)
