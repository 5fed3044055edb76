"""Fan loading, validation, completeness, and ray combinatorics."""

import hashlib
import importlib
import json
import pickle
import pkgutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stackycoh
from stackycoh.catalog import catalog_fan, catalog_names
from stackycoh.cli import main
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
from fangen import BENCH_FANS
from oracles import validate_oracle

P2_JSON = json.dumps(
    {
        "rank": 2,
        "rays": [[1, 0], [0, 1], [-1, -1]],
        "max_cones": [[0, 1], [1, 2], [2, 0]],
    }
)


def _p2_with(**fields):
    return json.dumps({**json.loads(P2_JSON), **fields})


# fan JSON of the wrong shape, each with the message load_fan refuses it with
STRUCTURAL_REFUSALS = [
    pytest.param("[1, 2]", "fan file must contain a JSON object", id="array"),
    pytest.param(_p2_with(rank="2"), "rank must be an integer", id="rank_string"),
    pytest.param(_p2_with(rank=True), "rank must be an integer", id="rank_true"),
    pytest.param(_p2_with(rays=5), "rays must be a list of integer vectors", id="rays_int"),
    pytest.param(_p2_with(rays=[1, 0]), "rays must be a list of integer vectors", id="rays_flat"),
    pytest.param(_p2_with(max_cones={"0": [0, 1]}), "max_cones must be a list of index lists", id="cones_object"),
    pytest.param(_p2_with(max_cones=[0, 1]), "max_cones must be a list of index lists", id="cones_flat"),
    pytest.param(_p2_with(max_cones=[[0, "1"], [1, 2], [2, 0]]), "cone entries must be integers", id="entry_string"),
    pytest.param(_p2_with(max_cones=[[0, True], [1, 2], [2, 0]]), "cone entries must be integers", id="entry_true"),
]

class TestLoading:
    def test_round_trip(self):
        fan = load_fan(P2_JSON)
        assert fan.rank == 2 and fan.nrays == 3
        again = load_fan(fan_to_json(fan))
        assert again == fan

    def test_fingerprint_is_stable(self):
        assert fan_fingerprint(load_fan(P2_JSON)) == "e693bb08f469b217"
        assert fan_fingerprint(catalog_fan("p2")) == "e693bb08f469b217"

    def test_fingerprint_falls_back_to_hashlib(self):
        # without CPython's own SHA-256 module fan.py takes hashlib's, and
        # the digests stay those of hashlib
        probe = (
            "import hashlib, json, sys; sys.modules['_sha256'] = sys.modules['_sha2'] = None; "
            f"sys.path.insert(0, {str(Path(stackycoh.__file__).parents[1])!r}); "
            "from stackycoh.fan import fan_fingerprint, load_fan, sha256; "
            "print(json.dumps([sha256 is hashlib.sha256, "
            "[fan_fingerprint(load_fan(text)) for text in json.loads(sys.stdin.read())]]))"
        )
        texts = [fan_to_json(catalog_fan(n)) for n in catalog_names()]
        texts += [fan_to_json(load_fan(p.read_text())) for p in sorted(BENCH_FANS.glob("*.json"))]
        proc = subprocess.run(
            [sys.executable, "-c", probe], input=json.dumps(texts), capture_output=True, text=True, check=True
        )
        expected = [hashlib.sha256(text.encode()).hexdigest()[:16] for text in texts]
        assert json.loads(proc.stdout) == [True, expected]

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

    @pytest.mark.parametrize("text", [
        "\ufeff" + P2_JSON, ("\ufeff" + P2_JSON).encode(), "{bad", P2_JSON + " x", "", "  ",
    ], ids=["byte_order_mark", "byte_order_mark_bytes", "bad", "extra_data", "empty", "blank"])
    def test_json_refusals_read_as_json_loads_words_them(self, text):
        # the decoder is built once, at import, and refuses what json.loads
        # refuses with its words, a leading byte order mark included; bytes
        # are read as UTF-8 first, so the mark stays in the text
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
        with pytest.raises(FanFormatError) as info:
            load_fan(text)
        assert str(info.value) == f"invalid fan JSON: {expected.value}"

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

    @pytest.mark.parametrize("text,message", STRUCTURAL_REFUSALS)
    def test_rejects_wrong_structure(self, text, message):
        with pytest.raises(FanFormatError) as info:
            load_fan(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("text,message", STRUCTURAL_REFUSALS)
    def test_cli_rejects_wrong_structure(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code = main(["validate", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", f"invalid fan: {message}\n")


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

    # fans built without validate: neighborhood refuses a link that is not one cycle
    def test_neighborhood_refuses_a_member_with_one_neighbour(self):
        rays = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))
        fan = StackyFan(3, rays, (frozenset({1, 2, 3}), frozenset({1, 3, 4})))
        with pytest.raises(FanValidationError, match="^link of ray 1 is not a single cycle$"):
            neighborhood(fan, 1)

    def test_neighborhood_refuses_two_disjoint_cycles(self):
        rays = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1), (0, -1, 0), (0, 0, -1), (0, -1, -1))
        triangles = [(2, 3), (3, 4), (4, 2), (5, 6), (6, 7), (7, 5)]
        fan = StackyFan(3, rays, tuple(frozenset({1, i, j}) for i, j in triangles))
        with pytest.raises(FanValidationError, match="^link of ray 1 is not a single cycle$"):
            neighborhood(fan, 1)

    def test_rank1_stacky_line(self):
        fan = make_fan(1, [(3,), (-2,)], [(1,), (2,)])
        assert collinear_pairs(fan) == ((1, 2),)


class TestCatalog:
    def test_unknown_name_raises_key_error(self):
        with pytest.raises(KeyError, match="unknown catalog fan 'nope'"):
            catalog_fan("nope")


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
            "cohomline.circuits",
            "fan.collinear_pairs",
            "fan.neighborhood",
            "homology.delta_fast_lowdim",
            "homology.delta_set",
            "picard.pic_structure",
            "plsearch._rows",
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
