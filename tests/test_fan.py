"""Fan loading, validation, completeness, and ray combinatorics."""

import importlib
import json
import pickle
import pkgutil
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stackycoh
from stackycoh.catalog import catalog_fan, catalog_names
from stackycoh.fan import (
    FanFormatError,
    FanValidationError,
    StackyFan,
    collinear_pairs,
    fan_fingerprint,
    fan_to_json,
    load_fan,
    make_fan,
    neighborhood,
    validate,
)
from oracles import validate_oracle

P2_JSON = json.dumps(
    {
        "rank": 2,
        "rays": [[1, 0], [0, 1], [-1, -1]],
        "max_cones": [[0, 1], [1, 2], [2, 0]],
    }
)


class TestLoading:
    def test_round_trip(self):
        fan = load_fan(P2_JSON)
        assert fan.rank == 2 and fan.nrays == 3
        again = load_fan(fan_to_json(fan))
        assert again == fan

    def test_fingerprint_is_stable(self):
        assert fan_fingerprint(load_fan(P2_JSON)) == "e693bb08f469b217"
        assert fan_fingerprint(catalog_fan("p2")) == "e693bb08f469b217"

    @pytest.mark.parametrize(
        "snippet",
        ["1.5", "1.0", "NaN", "Infinity", "true"],
    )
    def test_rejects_non_integer_entries(self, snippet):
        text = (
            '{"rank": 2, "rays": [[%s, 0], [0, 1], [-1, -1]], '
            '"max_cones": [[0, 1], [1, 2], [2, 0]]}' % snippet
        )
        with pytest.raises(FanFormatError):
            load_fan(text)

    def test_rejects_bytes_that_are_not_utf8(self):
        with pytest.raises(FanFormatError, match="^invalid fan JSON: 'utf-8' codec"):
            load_fan(b"\xff")

    @pytest.mark.parametrize("extra", [False, True], ids=["bare", "inside_a_fan"])
    def test_rejects_json_nested_too_deeply(self, extra):
        deep = "[" * 100000 + "]" * 100000
        text = P2_JSON[:-1] + ', "x": %s}' % deep if extra else deep
        with pytest.raises(FanFormatError, match="^invalid fan JSON: nested too deeply$"):
            load_fan(text)

    def test_rejects_missing_field(self):
        with pytest.raises(FanFormatError):
            load_fan('{"rank": 2, "rays": [[1, 0]]}')

    def test_rejects_out_of_range_cone_index(self):
        bad = json.loads(P2_JSON)
        bad["max_cones"][0] = [0, 7]
        with pytest.raises(FanFormatError):
            load_fan(json.dumps(bad))

    def test_rejects_cone_that_repeats_a_ray(self):
        # read as a set, [0, 1, 1] would silently become the cone [0, 1]
        bad = json.loads(P2_JSON)
        bad["max_cones"][0] = [0, 1, 1]
        with pytest.raises(FanFormatError, match=r"^cone \[0, 1, 1\] lists a ray index twice$"):
            load_fan(json.dumps(bad))


class TestValidation:
    """Each refusal of validate, with its exact message."""

    @staticmethod
    def refused(rank, rays, cones, message):
        with pytest.raises(FanValidationError) as info:
            make_fan(rank, rays, cones)
        assert str(info.value) == message

    def test_rank_below_one(self):
        self.refused(0, [(1,)], [(1,)], "rank must be at least 1")

    def test_no_rays(self):
        self.refused(2, [], [], "fan has no rays")

    def test_ray_length(self):
        self.refused(
            2,
            [(1, 0, 0), (0, 1), (-1, -1)],
            [(1, 2), (2, 3), (3, 1)],
            "ray length does not match rank",
        )

    def test_zero_ray(self):
        self.refused(
            2, [(0, 0), (0, 1), (-1, -1)], [(1, 2), (2, 3), (3, 1)], "zero ray"
        )

    def test_duplicate_ray(self):
        self.refused(
            2,
            [(1, 0), (1, 0), (0, 1)],
            [(1, 3), (3, 2), (2, 1)],
            "duplicate ray vector at positions 1, 2",
        )

    def test_same_direction_rays(self):
        self.refused(
            2,
            [(1, 0), (2, 0), (0, 1)],
            [(1, 3), (3, 2), (2, 1)],
            "rays 1 and 2 span the same 1-cone",
        )

    def test_first_pair_on_one_ray(self):
        # the smallest ray with a later partner, then its first partner
        rays = [(0, 1), (-1, 0), (0, 2), (-2, 0), (0, 1), (1, 0)]
        self.refused(2, rays, [], "rays 1 and 3 span the same 1-cone")
        self.refused(2, rays[1:], [], "rays 1 and 3 span the same 1-cone")
        self.refused(2, [(0, 1), (1, 0), (0, 1), (0, 2)], [], "duplicate ray vector at positions 1, 3")

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda m: st.lists(
        st.tuples(*[st.integers(-2, 2)] * m).filter(any), min_size=1, max_size=7
    )))
    def test_ray_pairs_match_every_pair_compared(self, rays):
        # with no cones, both stop at the rays or at the missing cones
        fan = StackyFan(len(rays[0]), tuple(rays), ())
        with pytest.raises(FanValidationError) as ours:
            validate(fan)
        with pytest.raises(FanValidationError) as oracle:
            validate_oracle(fan)
        assert str(ours.value) == str(oracle.value)

    def test_no_maximal_cones(self):
        self.refused(2, [(1, 0), (0, 1), (-1, -1)], [], "fan has no maximal cones")

    def test_wrong_cone_size(self):
        self.refused(
            2,
            [(1, 0), (0, 1), (-1, -1)],
            [(1, 2, 3)],
            "maximal cone size differs from rank",
        )

    def test_cone_index_out_of_range(self):
        self.refused(
            2,
            [(1, 0), (0, 1), (-1, -1)],
            [(1, 4), (2, 3), (3, 1)],
            "cone ray index 4 out of range",
        )

    def test_cone_repeating_a_ray(self):
        # read as a set, (1, 2, 2) would silently become the cone {1, 2}
        self.refused(
            2,
            [(1, 0), (0, 1), (-1, -1)],
            [(1, 2, 2), (2, 3), (3, 1)],
            "cone [1, 2, 2] lists a ray index twice",
        )

    def test_non_simplicial_cone(self):
        # two opposite rays span a line, not a two-dimensional cone
        self.refused(
            2,
            [(1, 0), (-1, 0), (0, 1), (0, -1)],
            [(1, 2), (2, 3), (3, 1)],
            "maximal cone [1, 2] not simplicial",
        )

    def test_unused_ray(self):
        self.refused(
            2,
            [(1, 0), (0, 1), (-1, -1), (1, 1)],
            [(1, 2), (2, 3), (3, 1)],
            "rays [4] unused by maximal cones",
        )

    def test_duplicate_maximal_cone(self):
        self.refused(
            2,
            [(1, 0), (0, 1), (-1, -1)],
            [(1, 2), (2, 3), (3, 1), (2, 1)],
            "duplicate maximal cone",
        )

    def test_incomplete_fan_unpaired_facet(self):
        self.refused(2, [(1, 0), (0, 1)], [(1, 2)], "facet [2] unpaired")

    def test_facet_of_three_cones(self):
        self.refused(
            2,
            [(1, 0), (0, 1), (1, -1), (-1, 0), (0, -1)],
            [(1, 2), (2, 4), (4, 5), (5, 3), (3, 2)],
            "facet [2] shared by more than two cones",
        )

    def test_facet_not_separating(self):
        # rays 1 and 3 lie on the same side of the line through ray 2
        self.refused(
            2,
            [(1, 0), (0, 1), (1, 1)],
            [(1, 2), (2, 3), (3, 1)],
            "facet [2] does not separate its two opposite rays",
        )

    def test_overlapping_cones_rejected(self):
        # a pentagram: five cones of about 144 degrees wind twice around
        # the origin, and every facet pairs and separates
        self.refused(
            2,
            [(1, 0), (-4, 3), (1, -3), (1, 3), (-4, -3)],
            [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)],
            "maximal cones [1, 2] and [4, 5] overlap",
        )

    @pytest.mark.parametrize("name", catalog_names())
    def test_dropping_any_cone_breaks_completeness(self, name):
        fan = catalog_fan(name)
        cones = sorted(fan.max_cones, key=lambda c: tuple(sorted(c)))
        if len(cones) < 2:
            pytest.skip("single-cone fan cannot drop a cone")
        kept = [tuple(sorted(c)) for c in cones[:-1]]
        rays = [tuple(r) for r in fan.rays]
        used = sorted({i for c in kept for i in c})
        remap = {old: new + 1 for new, old in enumerate(used)}
        with pytest.raises(FanValidationError):
            make_fan(
                fan.rank,
                [rays[i - 1] for i in used],
                [tuple(remap[i] for i in c) for c in kept],
            )

    @pytest.mark.parametrize("rank,rays,cones,message", [
        (2, [[1.5, 0], [0, 1], [-1, -1]], [[1, 2], [2, 3], [3, 1]],
         "integer ray coordinates expected, got the entry 1.5"),
        (2.0, [[1, 0], [0, 1], [-1, -1]], [[1, 2], [2, 3], [3, 1]],
         "an integer rank expected, got the entry 2.0"),
        (2, [[1, 0], [0, 1], [-1, -1]], [[1, 2], [2, 3], [3, 1.2]],
         "integer ray indices expected, got the entry 1.2"),
    ], ids=["ray", "rank", "cone"])
    def test_non_integers_refused_not_truncated(self, rank, rays, cones, message):
        # int() used to truncate them: the first of these built P2
        with pytest.raises(TypeError) as info:
            make_fan(rank, rays, cones)
        assert str(info.value) == message

    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_validates(self, name):
        fan = catalog_fan(name)
        assert fan.nrays >= fan.rank


class TestRayCombinatorics:
    def test_collinear_pairs_frozen(self):
        assert collinear_pairs(catalog_fan("p2")) == ()
        assert collinear_pairs(catalog_fan("p1xp1")) == ((1, 2), (3, 4))
        assert collinear_pairs(catalog_fan("cyclic5")) == ((1, 4), (3, 5))
        assert collinear_pairs(catalog_fan("p1xp2")) == ((1, 2),)
        assert collinear_pairs(catalog_fan("p1_22")) == ((1, 2),)
        assert collinear_pairs(catalog_fan("blp3_123")) == ()

    def test_stretched_rays_still_pair(self):
        assert collinear_pairs(catalog_fan("p1xp1_2131")) == ((1, 2), (3, 4))

    def test_neighborhood_cycle_p1xp2(self):
        nb = neighborhood(catalog_fan("p1xp2"), 3)
        assert nb.members == frozenset({1, 2, 4, 5})
        assert nb.cycle == (1, 4, 2, 5)

    def test_neighborhood_rank2_has_no_cycle(self):
        nb = neighborhood(catalog_fan("p2"), 1)
        assert nb.members == frozenset({2, 3})
        assert nb.cycle is None

    def test_neighborhood_rank1(self):
        nb = neighborhood(catalog_fan("p1"), 1)
        assert nb.members == frozenset()
        assert nb.cycle is None

    def test_rank1_stacky_line(self):
        fan = make_fan(1, [(3,), (-2,)], [(1,), (2,)])
        assert collinear_pairs(fan) == ((1, 2),)


class TestCaches:
    def test_every_cache_is_bounded(self):
        lru_type = type(lru_cache(maxsize=1)(len))
        found = {}
        for info in pkgutil.iter_modules(stackycoh.__path__):
            module = importlib.import_module(f"stackycoh.{info.name}")
            for name, obj in vars(module).items():
                if isinstance(obj, lru_type) and obj.__module__ == module.__name__:
                    found[f"{info.name}.{name}"] = obj.cache_info().maxsize
        assert set(found) == {
            "catalog.catalog_fan",
            "cohomline._delta_table",
            "fan.collinear_pairs",
            "fan.cone_adjugates",
            "fan.neighborhood",
            "homology.delta_fast_lowdim",
            "homology.delta_set",
            "picard.pic_structure",
        }, found
        assert all(size is not None for size in found.values()), found


class _CountedRays(tuple):
    """A ray tuple that counts how often it is hashed."""

    hashes = 0

    def __hash__(self):
        type(self).hashes += 1
        return super().__hash__()


class TestIdentity:
    """Fans key every cache: equal, hashable and picklable as plain values."""

    def test_hashed_once(self):
        p2 = catalog_fan("p2")
        fan = StackyFan(p2.rank, _CountedRays(p2.rays), p2.max_cones)
        for _ in range(5):
            hash(fan)
        assert {fan: 1}[p2] == 1
        assert _CountedRays.hashes == 1

    def test_equality_hash_and_pickle(self):
        fan = catalog_fan("p1xp2")
        # built without make_fan, whose validation hashes the fan for its caches
        twin = StackyFan(fan.rank, fan.rays, fan.max_cones)
        unhashed = pickle.dumps(twin)
        assert fan == twin and fan is not twin
        assert hash(fan) == hash(twin) == hash((fan.rank, fan.rays, fan.max_cones))
        assert fan != catalog_fan("p1xp1")
        # the cached hash stays out of the pickled state and the repr
        assert pickle.dumps(twin) == pickle.dumps(fan) == unhashed
        assert "_hash" not in repr(twin)
        loaded = pickle.loads(unhashed)
        assert loaded == fan and hash(loaded) == hash(fan)
