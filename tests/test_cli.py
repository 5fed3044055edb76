"""End-to-end checks of the command-line interface."""

import json
import subprocess
import sys

import pytest

from oracles import exhaustive_delta
from stackycoh.catalog import catalog_fan, catalog_names
from stackycoh.cli import main
from stackycoh.cohomline import scan_h_trivial
from stackycoh.fan import fan_fingerprint
from stackycoh.picard import class_to_json

P2_FILE = """
{
  "rank": 2,
  "rays": [[1, 0], [0, 1], [-1, -1]],
  "max_cones": [[0, 1], [1, 2], [2, 0]]
}
"""

P4_FILE = """
{
  "rank": 4,
  "rays": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
           [-1, -1, -1, -1]],
  "max_cones": [[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 3, 4], [0, 2, 3, 4],
                [1, 2, 3, 4]]
}
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out.endswith("\n") and out.count("\n") == 1
    return json.loads(out)


class TestCatalogCommand:
    def test_lists_all_fans(self, capsys):
        data = run_json(capsys, "catalog")
        names = [row["name"] for row in data["fans"]]
        assert names == list(catalog_names())
        by_name = {row["name"]: row for row in data["fans"]}
        assert by_name["p2"]["fingerprint"] == "e693bb08f469b217"
        assert by_name["p2"]["rank"] == 2
        assert by_name["p2"]["rays"] == 3

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "catalog", "--format", "text")
        assert code == 0
        assert len(out.splitlines()) == len(catalog_names())
        assert any(line.startswith("p2:") for line in out.splitlines())


class TestValidateCommand:
    def test_catalog_reference(self, capsys):
        data = run_json(capsys, "validate", "@p2")
        assert data["valid"] is True
        assert data["fan"] == "e693bb08f469b217"
        assert data["max_cones"] == 3

    def test_file_matches_catalog(self, capsys, tmp_path):
        path = tmp_path / "p2.json"
        path.write_text(P2_FILE)
        data = run_json(capsys, "validate", str(path))
        assert data["fan"] == "e693bb08f469b217"

    def test_float_ray_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(P2_FILE.replace("[1, 0]", "[1.5, 0]"))
        code, _, err = run(capsys, "validate", str(path))
        assert code == 1
        assert err.startswith("invalid fan:")

    def test_broken_json_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 1

    def test_incomplete_fan_rejected(self, capsys, tmp_path):
        path = tmp_path / "half.json"
        path.write_text(
            '{"rank": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[1, 2]]}'
        )
        code, _, err = run(capsys, "validate", str(path))
        assert code == 1
        assert err.startswith("invalid fan:")


class TestUsageErrors:
    def test_unknown_catalog_name(self, capsys):
        code, _, err = run(capsys, "validate", "@nosuchfan")
        assert code == 3
        assert err.startswith("usage error:")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "no/such/file.json")
        assert code == 3

    def test_bad_coeffs(self, capsys):
        code, _, err = run(
            capsys, "cohomology", "@p2", "--coeffs", "1,x,3"
        )
        assert code == 3

    def test_wrong_coeff_count(self, capsys):
        code, _, err = run(capsys, "cohomology", "@p2", "--coeffs", "1,2")
        assert code == 3
        assert "expected 3" in err

    def test_bad_box(self, capsys):
        code, _, err = run(capsys, "scan", "@p2", "--box", "5:1")
        assert code == 3

    @pytest.mark.parametrize("name", ["p2", "p1xp1xp1"])
    def test_report_box_of_wrong_length(self, capsys, name):
        code, _, err = run(capsys, "report", f"@{name}", "--box=0:0,0:0")
        assert code == 3
        assert err.startswith("usage error:")

    def test_seed_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["validate", "@p2", "--seed", "1"])
        assert info.value.code == 3

    def test_nonpositive_cap(self, capsys):
        code, _, err = run(capsys, "validate", "@p2", "--cap", "0")
        assert code == 3

    def test_missing_subcommand_exits_3(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 3

    def test_unknown_flag_exits_3(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["catalog", "--frobnicate"])
        assert info.value.code == 3


class TestPicCommand:
    def test_torsion_fan(self, capsys):
        data = run_json(capsys, "pic", "@p1_22")
        assert data["free_rank"] == 1
        assert data["torsion"] == [2]

    def test_text(self, capsys):
        code, out, _ = run(capsys, "pic", "@p1_22", "--format", "text")
        assert code == 0
        assert out == "free rank 1; torsion Z/2\n"


class TestDeltaCommand:
    def test_p2_members(self, capsys):
        data = run_json(capsys, "delta", "@p2")
        assert data["members"] == [
            {"index_set": [], "betti": [1, 0, 0]},
            {"index_set": [1, 2, 3], "betti": [0, 0, 1]},
        ]

    def test_rank_four_projective_space(self, capsys, tmp_path):
        # rank above three goes through exhaustive enumeration
        path = tmp_path / "p4.json"
        path.write_text(P4_FILE)
        data = run_json(capsys, "delta", str(path))
        assert [m["index_set"] for m in data["members"]] == [
            [],
            [1, 2, 3, 4, 5],
        ]

    def test_cap_exceeded_exits_2(self, capsys, tmp_path):
        path = tmp_path / "p4.json"
        path.write_text(P4_FILE)
        code, _, err = run(capsys, "delta", str(path), "--delta-cap", "4")
        assert code == 2
        assert err.startswith("computation stopped:")

    @pytest.mark.parametrize("name", catalog_names())
    def test_stdout_equals_exhaustive(self, capsys, name):
        fan = catalog_fan(name)
        members = [
            {"index_set": sorted(I), "betti": list(b)}
            for I, b in exhaustive_delta(fan).members
        ]
        expected = json.dumps(
            {"fan": fan_fingerprint(fan), "members": members},
            sort_keys=True,
            separators=(",", ":"),
        )
        code, out, _ = run(capsys, "delta", f"@{name}")
        assert code == 0
        assert out == expected + "\n"


class TestDeltaCapInLowRank:
    """--delta-cap bounds Delta on rank-2 and rank-3 fans too."""

    @pytest.mark.parametrize("argv", [
        ("delta", "@p1xp1xp1"),
        ("cohomology", "@p1xp1xp1", "--coeffs=0,0,0,0,0,0"),
        ("report", "@p1xp1xp1", "--box=0:0"),
        ("h-trivial", "@p2", "--coeffs=0,0,0"),
    ], ids=lambda a: a[0])
    def test_cap_below_ray_count_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--delta-cap", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("computation stopped:") and "cap 2" in err

    def test_cap_at_ray_count_runs(self, capsys):
        code, _, _ = run(capsys, "delta", "@p1xp1xp1", "--delta-cap", "6")
        assert code == 0


class TestCohomologyCommand:
    def test_twists_of_p2(self, capsys):
        data = run_json(capsys, "cohomology", "@p2", "--coeffs", "3,0,0")
        assert data["h"] == [10, 0, 0]
        data = run_json(capsys, "cohomology", "@p2", "--coeffs=-3,0,0")
        assert data["h"] == [0, 0, 1]
        assert data["class"]["raw"] == [-3, 0, 0]

    def test_cap_exceeded_exits_2(self, capsys):
        code, _, err = run(
            capsys, "cohomology", "@p2", "--coeffs=-50,0,0", "--cap", "3"
        )
        assert code == 2
        assert err.startswith("computation stopped:")


class TestHTrivialCommand:
    def test_trivial_class(self, capsys):
        data = run_json(capsys, "h-trivial", "@p2", "--coeffs=-1,0,0")
        assert data["h_trivial"] is True
        assert data["forbidden"] is None

    def test_structure_sheaf(self, capsys):
        data = run_json(capsys, "h-trivial", "@p2", "--coeffs", "0,0,0")
        assert data["h_trivial"] is False
        assert data["forbidden"]["index_set"] == [1, 2, 3]
        assert data["forbidden"]["witness"] == [0, 0]

    def test_text(self, capsys):
        code, out, _ = run(
            capsys, "h-trivial", "@p2", "--coeffs=-2,0,0",
            "--format", "text",
        )
        assert code == 0
        assert out == "true\n"


class TestScanCommand:
    def test_p2_window(self, capsys):
        data = run_json(capsys, "scan", "@p2", "--box=-12:12")
        assert data["count"] == 2
        raws = [c["raw"] for c in data["classes"]]
        expected = scan_h_trivial(catalog_fan("p2"), ((-12, 12),))
        assert raws == [list(c.raw) for c in expected]
        assert data["classes"] == [class_to_json(c) for c in expected]

    def test_threads_match_serial(self, capsys):
        code, serial, _ = run(capsys, "scan", "@p1xp1", "--box=-4:4")
        assert code == 0
        code, threaded, _ = run(
            capsys, "scan", "@p1xp1", "--box=-4:4", "--threads", "3"
        )
        assert code == 0
        assert serial == threaded


class TestFindPsiCommand:
    def test_found(self, capsys):
        data = run_json(capsys, "find-psi", "@p1xp1")
        assert data["found"] is True
        assert data["degenerate_psi"] == {"ray": 1, "psi": [0, 0, 1, 0]}

    def test_absent(self, capsys):
        data = run_json(capsys, "find-psi", "@p2")
        assert data == {
            "degenerate_psi": None,
            "fan": "e693bb08f469b217",
            "found": False,
        }


class TestFamilyCommand:
    def test_no_psi_is_success_with_empty_family(self, capsys):
        data = run_json(capsys, "family", "@p2")
        assert data["found"] is False
        assert data["classes"] == []

    def test_p1xp1_window(self, capsys):
        data = run_json(capsys, "family", "@p1xp1", "--r", "0:3")
        assert data["found"] is True
        assert [row["r"] for row in data["classes"]] == [0, 1, 2, 3]
        assert all(row["h_trivial"] for row in data["classes"])
        assert data["classes"][0]["class"]["raw"] == [-1, 0, 0, 0]


class TestReportCommand:
    def test_undetermined_text(self, capsys):
        code, out, _ = run(capsys, "report", "@p2", "--format", "text")
        assert code == 0
        assert "verdict: Undetermined" in out

    def test_infinitely_many_json(self, capsys):
        data = run_json(capsys, "report", "@p1xp1")
        assert data["verdict"] == "InfinitelyMany"
        assert data["degenerate_psi"]["ray"] == 1
        assert len(data["sampled_family_checks"]) == 11

    def test_finitely_many(self, capsys):
        data = run_json(capsys, "report", "@p3")
        assert data["verdict"] == "FinitelyMany"
        assert data["degenerate_psi"] is None

    def test_delta_cap_exceeded_exits_2(self, capsys, tmp_path):
        path = tmp_path / "p4.json"
        path.write_text(P4_FILE)
        code, _, err = run(
            capsys, "report", str(path), "--box=-1:1", "--delta-cap", "2"
        )
        assert code == 2
        assert err.startswith("computation stopped:")


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("catalog",),
            ("delta", "@p1xp2"),
            ("scan", "@p2", "--box=-6:6"),
            ("report", "@hirzebruch1"),
        ],
    )
    def test_repeat_runs_byte_identical(self, capsys, argv):
        code, first, _ = run(capsys, *argv)
        assert code == 0
        code, second, _ = run(capsys, *argv)
        assert code == 0
        assert first == second


class TestInstalledEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "stackycoh.cli", "pic", "@p2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["free_rank"] == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("h-trivial", "@p1xp2", "--coeffs=0,0,-1,0,0"),
            ("scan", "@p1xp1xp1", "--box=-1:1"),
        ],
    )
    def test_optimized_interpreter_prints_the_same(self, argv):
        # python -O strips assert statements; no check may depend on them
        outs = [
            subprocess.run(
                [sys.executable, *flags, "-m", "stackycoh.cli", *argv],
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for flags in ((), ("-O",))
        ]
        assert outs[0] == outs[1]
