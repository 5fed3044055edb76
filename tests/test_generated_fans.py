"""Generated fans: covers of degree k refused, stellar subdivisions kept.

A fan that winds k times around the origin pairs and separates every
facet, so only the covering-degree check can refuse it. A stellar
subdivision at an interior lattice point stays complete by construction,
so it must validate, and its Delta and its cohomology must match the
exhaustive routes.
"""

import json
import random
from math import cos, gcd, pi, sin

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fangen import PRODUCTS, assert_matches_exhaustive, named_product, stellar
from oracles import brute_cohomology
from stackycoh.catalog import catalog_fan, catalog_names
from stackycoh.cli import main
from stackycoh.cohomline import cohomology
from stackycoh.fan import FanValidationError, fan_to_json, make_fan
from stackycoh.homology import delta_family


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


# start fans of the random subdivisions: catalog names and factor pairs
START_FANS = [(n,) for n in catalog_names() if catalog_fan(n).rank >= 2] + PRODUCTS[4]


def start_fan(names):
    return catalog_fan(names[0]) if len(names) == 1 else named_product(names)


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

    @pytest.mark.parametrize("name,cone", subdivisions(max_rank=2))
    def test_cohomology_matches_direct_count(self, name, cone):
        fan = stellar(catalog_fan(name), cone)
        rng = random.Random(fan_to_json(fan))
        for _ in range(3):
            a = [rng.randint(-2, 2) for _ in range(fan.nrays)]
            assert cohomology(fan, a) == brute_cohomology(fan, a, 8), a
