"""End-to-end checks of the command-line interface."""

import argparse
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fangen import BENCH_FANS
from oracles import exhaustive_delta
from stackycoh import cli
from stackycoh.catalog import catalog_fan, catalog_names
from stackycoh.cli import _build_parser, _config, _parse, _parse_canonical, main
from stackycoh.cohomline import Limits, scan_h_trivial
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

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_bytes(b"\xff\xfe\x00bad")
        proc = subprocess.run(
            [sys.executable, "-m", "stackycoh.cli", "validate", str(path)],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("invalid fan: invalid fan JSON: 'utf-8' codec")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("extra", [False, True], ids=["bare", "inside_a_fan"])
    def test_deeply_nested_json_rejected(self, tmp_path, extra):
        deep = "[" * 100000 + "]" * 100000
        path = tmp_path / "deep.json"
        path.write_text(P2_FILE.rstrip()[:-1] + ', "x": %s}' % deep if extra else deep)
        proc = subprocess.run(
            [sys.executable, "-m", "stackycoh.cli", "validate", str(path)],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "invalid fan: invalid fan JSON: nested too deeply\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate"], ["pic"], ["delta"], ["find-psi"], ["family"], ["report"],
            ["cohomology", "--coeffs=0,0,0"], ["h-trivial", "--coeffs=0,0,0"],
            ["scan", "--box=-1:1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_cone_repeating_a_ray_rejected(self, capsys, tmp_path, argv):
        path = tmp_path / "dup.json"
        path.write_text(
            '{"rank":2,"rays":[[1,0],[0,1],[-1,-1]],"max_cones":[[0,1,1],[1,2],[2,0]]}'
        )
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, out) == (1, "")
        assert err == "invalid fan: cone [0, 1, 1] lists a ray index twice\n"

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
        # p2 has free rank 1 and p1xp1xp1 free rank 3
        expected = {"p2": "1 range", "p1xp1xp1": "1 or 3 ranges"}[name]
        code, _, err = run(capsys, "report", f"@{name}", "--box=0:0,0:0")
        assert code == 3
        assert err == f"usage error: expected {expected}, got 2\n"

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
            for I, b in exhaustive_delta(fan)
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


def _subparsers(parser):
    action = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


def _subcommand_options():
    return {
        name: {opt for a in p._actions for opt in a.option_strings}
        for name, p in _subparsers(_build_parser()).items()
    }


OPTIONS = _subcommand_options()
LIMIT_FLAGS = ("--cap", "--delta-cap", "--threads")
# per subcommand, arguments on which every enumeration limit it takes
# bites at 1: O of P2 has lattice points, and p1xp1 has a family
ARGS = {
    "catalog": (),
    "validate": ("@p2",),
    "pic": ("@p2",),
    "delta": ("@p2",),
    "cohomology": ("@p2", "--coeffs=0,0,0"),
    "h-trivial": ("@p2", "--coeffs=0,0,0"),
    "scan": ("@p2", "--box=0:0"),
    "find-psi": ("@p1xp1",),
    "family": ("@p1xp1", "--r=0:0"),
    "report": ("@p1xp1", "--box=0:0", "--r=0:0"),
}
ACCEPTED = [
    (name, flag) for name in OPTIONS for flag in LIMIT_FLAGS if flag in OPTIONS[name]
]
REFUSED = [
    (name, flag) for name in OPTIONS for flag in LIMIT_FLAGS
    if flag not in OPTIONS[name]
]


def _pairs(pairs):
    return pytest.mark.parametrize(
        "name,flag", pairs, ids=[f"{name}{flag}" for name, flag in pairs]
    )


class TestLimitFlags:
    """Each subcommand takes exactly the limit flags it honours."""

    def test_every_subcommand_has_arguments(self):
        assert set(OPTIONS) == set(ARGS)
        assert all("--format" in opts for opts in OPTIONS.values())

    def test_flag_table(self):
        assert sorted(ACCEPTED) == sorted(
            [(n, "--cap") for n in ("cohomology", "h-trivial", "scan")]
            + [
                (n, "--delta-cap")
                for n in ("delta", "cohomology", "h-trivial", "scan", "family", "report")
            ]
            + [("scan", "--threads")]
        )

    @_pairs([p for p in ACCEPTED if p[1] != "--threads"])
    def test_accepted_limit_bites(self, capsys, name, flag):
        code, out, err = run(capsys, name, *ARGS[name], flag, "1")
        assert code == 2, err
        assert out == ""
        assert err.startswith("computation stopped:") and "cap 1" in err

    @_pairs(ACCEPTED)
    def test_nonpositive_value_exits_3(self, capsys, name, flag):
        code, out, err = run(capsys, name, *ARGS[name], f"{flag}=0")
        assert code == 3
        assert out == ""
        assert err == f"usage error: {flag} must be positive\n"

    @_pairs(REFUSED)
    def test_refused_flag_exits_3(self, capsys, name, flag):
        code, out, err = run(capsys, name, *ARGS[name], flag, "1")
        assert code == 3
        assert out == ""
        assert err.startswith(f"usage error: {name} does not take {flag};")


    @_pairs(ACCEPTED)
    def test_help_names_the_bound_and_its_default(self, name, flag):
        action = next(
            a for a in _subparsers(_build_parser())[name]._actions
            if flag in a.option_strings
        )
        defaults = {"--cap": Limits().cap, "--delta-cap": Limits().delta_cap}
        assert action.help
        assert f"(default {defaults.get(flag, 1)})" in action.help


# stderr of usage errors, as the full argparse parser prints them
CHOICES = (
    "'catalog', 'validate', 'pic', 'delta', 'cohomology', 'h-trivial', "
    "'scan', 'find-psi', 'family', 'report'"
)
USAGE_ERRORS = {
    (): "stackycoh: error: the following arguments are required: command\n",
    ("bogus",): "stackycoh: error: argument command: invalid choice: "
    f"'bogus' (choose from {CHOICES})\n",
    ("--format", "json", "catalog"): "stackycoh: error: argument command: "
    f"invalid choice: 'json' (choose from {CHOICES})\n",
    ("cohomology", "@p2"): "stackycoh cohomology: error: the following "
    "arguments are required: --coeffs\n",
    ("h-trivial", "--coeffs=0,0,0"): "stackycoh h-trivial: error: the "
    "following arguments are required: fan\n",
    ("catalog", "--frobnicate"): "stackycoh: error: unrecognized arguments: "
    "--frobnicate\n",
    ("scan", "@p2", "--box=0:0", "--cap"): "stackycoh scan: error: argument "
    "--cap: expected one argument\n",
}


class TestOneSubcommandParser:
    """Help and usage errors, which argparse still prints, read as before."""

    @pytest.mark.parametrize("argv", sorted(USAGE_ERRORS), ids=" ".join)
    def test_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        captured = capsys.readouterr()
        assert info.value.code == 3
        assert (captured.out, captured.err) == ("", USAGE_ERRORS[argv])

    def test_refused_limit_flag(self, capsys):
        code, out, err = run(capsys, "validate", "@p2", "--cap", "1")
        assert (code, out) == (3, "")
        assert err == (
            "usage error: validate does not take --cap; "
            "it is read by cohomology, h-trivial, scan\n"
        )

    @pytest.mark.parametrize("argv", [("-h",), ("scan", "-h")], ids=" ".join)
    def test_help(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        captured = capsys.readouterr()
        parser = _build_parser()
        if len(argv) > 1:
            parser = _subparsers(parser)[argv[0]]
        assert info.value.code == 0
        assert (captured.out, captured.err) == (parser.format_help(), "")


LIMIT_VALUES = {"--cap": Limits().cap, "--delta-cap": Limits().delta_cap, "--threads": 1}
# each subcommand's arguments in both flag spellings, as the table parser reads them
CANONICAL = [
    (name, *ARGS[name], *extra)
    for name in ARGS
    for extra in [(), ("--format", "text"), ("--format=text",)]
    + [(flag, str(LIMIT_VALUES[flag])) for n, flag in ACCEPTED if n == name]
    + [(f"{flag}={LIMIT_VALUES[flag]}",) for n, flag in ACCEPTED if n == name]
]
# spellings the table parser leaves to argparse: (exit code, stderr) as before
DECLINED = {
    ("cohomology", "@p2", "--coef=1,0,0"): (0, ""),
    ("delta", "@p2", "-h"): (0, ""),
    ("delta", "@p2", "--"): (0, ""),
    ("delta", "-"): (3, "usage error: fan file '-' not found\n"),
    ("cohomology", "@p2", "--coeffs", "-1,0,0"): (
        3, "stackycoh cohomology: error: argument --coeffs: expected one argument\n"
    ),
    ("delta", "@p2", "--format=-1", "--format", "json"): (
        3, "stackycoh delta: error: argument --format: invalid choice: '-1' "
        "(choose from 'json', 'text')\n"
    ),
    ("scan", "@p2", "--box=0:0", "--threads", "2", "--threads=x"): (
        3, "stackycoh scan: error: argument --threads: invalid int value: 'x'\n"
    ),
}


def _outcome(given):
    """The RunConfig of parsed arguments, or the usage error they raise."""
    try:
        return _config(given)
    except cli.UsageError as exc:
        return str(exc)


FLAG_VALUES = {
    "--format": ("json", "text"),
    "--coeffs": ("0,0,0", "-1,0,0", "1,x"),
    "--box": ("0:0", "-3:3", "0:0,0:0"),
    "--r": ("0:0", "-5:5"),
    **{flag: ("3", " 7", "+3", "1_0", "0") for flag in LIMIT_FLAGS},
}
ODD_VALUES = ("xml", "", "-", "-1", "--cap", "x y")


@st.composite
def _argvs(draw):
    """A subcommand, maybe its usual arguments, and up to five odd or plain words."""
    command = draw(st.sampled_from([*ARGS, "bogus"]))
    own = sorted(OPTIONS.get(command, {"--format"}) - {"-h", "--help"})
    words = [[w] for w in ARGS.get(command, ())] if draw(st.integers(0, 3)) else []
    for _ in range(draw(st.integers(0, 5))):
        # 0: a positional; 1-3: a flag of this subcommand, with odd values
        # only at 3; 4-5: any flag, abbreviations and refused ones included
        kind = draw(st.integers(0, 5))
        if kind == 0:
            words.append([draw(st.sampled_from(["@p2", "@p1xp1", "x y", "-h", "--help", "--", "-"]))])
            continue
        flag = draw(st.sampled_from(
            own if kind < 4 else [*FLAG_VALUES, "--form", "--coef", "--delta", "--b", "--c"]
        ))
        value = draw(st.sampled_from(FLAG_VALUES.get(flag, ("0:0",)) + ODD_VALUES * (kind == 3)))
        words.append([f"{flag}={value}"] if draw(st.booleans()) else [flag, value])
    return [command, *(w for ws in draw(st.permutations(words)) for w in ws)]


class TestTableParser:
    """The table parser takes what argparse parses the same way, and nothing else."""

    @settings(max_examples=400, deadline=None)
    @given(_argvs())
    def test_agrees_with_argparse(self, argv):
        parsed = _parse_canonical(argv)
        if parsed is not None:
            args = vars(_parse(_build_parser(), argv))
            assert args == parsed
            assert _outcome(args) == _outcome(parsed)

    @pytest.mark.parametrize("argv", CANONICAL, ids=" ".join)
    def test_builds_no_argparse_parser(self, capsys, monkeypatch, argv):
        assert _parse_canonical(argv) == vars(_parse(_build_parser(), argv))

        def refuse():
            raise AssertionError("argparse parser built for a plain command line")

        monkeypatch.setattr(cli, "_build_parser", refuse)
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("argv", sorted(DECLINED), ids=" ".join)
    def test_declined_spellings_keep_their_output(self, capsys, argv):
        assert _parse_canonical(argv) is None
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        assert (code, capsys.readouterr().err) == DECLINED[argv]

    def test_every_repeat_is_checked_and_the_last_wins(self):
        assert _parse_canonical(["delta", "@p2", "--format=text", "--format", "json"]) == {
            "command": "delta", "fan": "@p2", "format": "json",
        }
        assert _parse_canonical(["scan", "@p2", "--box=0:0", "--cap=x", "--cap", "3"]) is None

    def test_import_leaves_the_process_pool_out(self):
        probe = (
            "import sys, stackycoh.cli; "
            "print([m for m in ('multiprocessing', 'concurrent.futures.process') "
            "if m in sys.modules])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        assert proc.stdout == "[]\n"

    def test_import_leaves_argparse_out(self):
        # plain command lines are read from the grammar table, so a cold
        # start pays for argparse only when help or an error needs it
        probe = "import sys, stackycoh.cli; print('argparse' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        assert proc.stdout == "False\n"


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

    def test_cap_bounds_the_search_up_to_the_first_witness(self, capsys):
        # counting the 55 sections of O(9) on P2 runs past the cap 3; the
        # first witness is the second candidate value the search visits
        data = run_json(capsys, "h-trivial", "@p2", "--coeffs=9,0,0", "--cap", "3")
        assert data["forbidden"] == {"index_set": [1, 2, 3], "witness": [-9, 0]}
        code, out, err = run(capsys, "h-trivial", "@p2", "--coeffs=9,0,0", "--cap", "1")
        assert (code, out) == (2, "")
        assert err.startswith("computation stopped:") and "cap 1 on index set [1, 2, 3]" in err


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


class TestCapEdges:
    """The cap 1 on P1, where a walk has one candidate value to spend."""

    def test_count_runs_past_the_cap(self, capsys):
        # O(5) has 6 sections, so the count spends the cap on its second candidate
        code, out, err = run(capsys, "cohomology", "@p1", "--coeffs=5,0", "--cap", "1")
        assert (code, out) == (2, "")
        assert err == "computation stopped: lattice point enumeration exceeded the cap 1 on index set [1, 2]\n"

    def test_first_witness_within_the_cap(self, capsys):
        code, out, err = run(capsys, "h-trivial", "@p1", "--coeffs=5,0", "--cap", "1")
        assert (code, err) == (0, "")
        assert out == (
            '{"coeffs":[5,0],"fan":"371d2c3aedac3e0a",'
            '"forbidden":{"index_set":[1,2],"witness":[-5]},"h_trivial":false}\n'
        )

    def test_scan_within_the_cap(self, capsys):
        code, out, err = run(capsys, "scan", "@p1", "--box=-2:2", "--cap", "1")
        assert (code, err) == (0, "")
        assert out == (
            '{"box":[[-2,2]],"classes":[{"canonical":{"free":[-1],"torsion":[]},"raw":[0,-1]}],'
            '"count":1,"fan":"371d2c3aedac3e0a"}\n'
        )


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


    def test_delta_cap_reached_only_by_a_class_to_decide(self, capsys):
        # a box of the zero class alone decides nothing, so the table is not fetched
        code, out, _ = run(capsys, "report", "@p2", "--box=0:0", "--delta-cap", "1")
        assert code == 0
        assert out == (
            '{"collinear_pair_count":0,"degenerate_psi":null,"fan":"e693bb08f469b217",'
            '"sampled_family_checks":[],"statement3_witness":null,"verdict":"Undetermined"}\n'
        )
        code, out, err = run(capsys, "report", "@p2", "--box=-1:1", "--delta-cap", "1")
        assert code == 2
        assert out == ""
        assert err == "computation stopped: fan has 3 rays, above the enumeration cap 1\n"
        # the psi family of p1xp1 has classes to decide, so it reaches the cap
        code, out, err = run(capsys, "report", "@p1xp1", "--box=0:0", "--delta-cap", "1")
        assert code == 2
        assert err == "computation stopped: fan has 4 rays, above the enumeration cap 1\n"


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

    def test_bench_reference_outputs(self, capsys, monkeypatch):
        # every recorded benchmark invocation, in process: its fan paths
        # are relative to the repository root
        root = BENCH_FANS.parent.parent
        monkeypatch.chdir(root)
        reference = json.loads((root / "bench" / "reference.json").read_text())
        entries = [
            entry
            for strata in reference["workloads"].values()
            for stratum in strata
            for entry in stratum
        ]
        assert entries
        for entry in entries:
            code, out, err = run(capsys, *entry["argv"])
            assert (code, out) == (0, entry["stdout"]), (entry["argv"], err)


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
