"""Generated fans: covers of degree k refused, stellar subdivisions kept.

A fan that winds k times around the origin pairs and separates every
facet, so only the covering-degree check can refuse it. A stellar
subdivision at an interior lattice point stays complete by construction,
so it must validate, and its fast Delta and its cohomology must match
the exhaustive routes.
"""

import json
import random
from math import cos, gcd, pi, sin

import pytest

from oracles import brute_cohomology
from stackycoh.catalog import catalog_fan, catalog_names
from stackycoh.cli import main
from stackycoh.cohomline import cohomology
from stackycoh.fan import FanValidationError, fan_to_json, make_fan
from stackycoh.homology import delta_fast_lowdim, delta_set


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


def stellar(fan, cone):
    """Subdivide a maximal cone at the sum of its rays."""
    w = tuple(sum(xs) for xs in zip(*(fan.ray(i) for i in cone)))
    new = fan.nrays + 1
    cones = [sorted(c) for c in fan.max_cones if c != cone]
    cones += [sorted(cone - {i} | {new}) for i in sorted(cone)]
    return make_fan(fan.rank, list(fan.rays) + [w], cones)


def subdivisions(max_rank=None):
    out = []
    for name in catalog_names():
        fan = catalog_fan(name)
        if fan.rank < 2 or (max_rank is not None and fan.rank > max_rank):
            continue
        for idx, cone in enumerate(sorted(fan.max_cones, key=sorted)):
            out.append(pytest.param(name, cone, id=f"{name}-{idx}"))
    return out


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
        fan = stellar(catalog_fan(name), cone)
        assert delta_fast_lowdim(fan).members == delta_set(fan).members

    @pytest.mark.parametrize("name,cone", subdivisions(max_rank=2))
    def test_cohomology_matches_direct_count(self, name, cone):
        fan = stellar(catalog_fan(name), cone)
        rng = random.Random(fan_to_json(fan))
        for _ in range(3):
            a = [rng.randint(-2, 2) for _ in range(fan.nrays)]
            assert cohomology(fan, a) == brute_cohomology(fan, a, 8), a
