"""Tests of the benchmark harness: tracer, runner, workloads and inputs.

Anything that installs the tracer or calls into the package runs in a
forked child, so this process keeps cold caches and unwrapped modules.

    python -m pytest bench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from array import array

import pytest

import inputs
import closed_forms
import runner
import tracer
import workloads

BENCH = inputs.FANS_DIR.parent
ROOT = BENCH.parent


@pytest.fixture(autouse=True)
def _cold_at_root(monkeypatch):
    # other test modules in the same session may have filled the caches
    for fn in runner.COLD_CACHES.values():
        fn.cache_clear()
    monkeypatch.chdir(ROOT)


def _in_child(fn):
    value, _ = runner.call_in_child(fn, timeout=120)
    return value


class TestSelfTimes:
    def test_synthetic_tree(self):
        # 0 [0, 10] has children 1 [1, 4] and 3 [5, 9]; 1 has child 2 [2, 3]
        parents = [-1, 0, 1, 0]
        starts = [0.0, 1.0, 2.0, 5.0]
        ends = [10.0, 4.0, 3.0, 9.0]
        assert tracer.self_times(parents, starts, ends) == [3.0, 2.0, 1.0, 4.0]

    def test_totals_aggregate_by_function_and_layer(self):
        trace = {
            "names": ["cli.main", "exactlin.feasible", "exactlin.rat_rank"],
            "span_name": array("i", [0, 1, 2, 1]).tobytes(),
            "span_parent": array("i", [-1, 0, 1, 0]).tobytes(),
            "span_start": array("d", [0.0, 1.0, 2.0, 5.0]).tobytes(),
            "span_end": array("d", [10.0, 4.0, 3.0, 9.0]).tobytes(),
            "counters": {},
        }
        totals = tracer.LayerTotals()
        totals.add(trace)
        assert totals.calls["exactlin.feasible"] == 2
        assert totals.self_s["exactlin.feasible"] == 6.0
        assert totals.layer_self_s("exactlin") == 7.0
        assert totals.layer_self_s("cli") == 3.0


class TestTracer:
    def test_every_module_binding_is_replaced(self):
        def probe():
            import stackycoh
            import stackycoh.cohomline as cohomline
            import stackycoh.exactlin as exactlin

            original = exactlin.feasible
            tracer.install_tracer()
            return (
                cohomline.feasible is exactlin.feasible,
                exactlin.feasible is not original,
                exactlin.feasible.__wrapped__ is original,
                stackycoh.feasible is exactlin.feasible,
            )

        assert _in_child(probe) == (True, True, True, True)

    def test_spans_name_the_defining_layer(self):
        def probe():
            t = tracer.install_tracer()
            import stackycoh.cli

            stackycoh.cli.main(["h-trivial", "@p2", "--coeffs=-1,0,0", "--format", "text"])
            return t.collect()

        totals = tracer.LayerTotals()
        totals.add(_in_child(probe))
        assert totals.calls["cli.main"] == 1
        assert totals.calls["cohomline.forbidden_cone"] == 1
        assert totals.calls["exactlin.feasible"] > 0
        assert not any(name.startswith("catalog.") for name in totals.calls)

    @pytest.mark.parametrize(
        "argv",
        [
            ["cohomology", "@p3", "--coeffs=2,0,0,-1"],
            ["report", "@p1xp2", "--box=-1:1"],
            ["delta", "bench/fans/p1xp3.json"],
        ],
    )
    def test_stdout_is_identical_with_and_without_tracing(self, argv):
        plain = runner.run_op(argv, timeout=120)
        traced = runner.run_op(argv, timeout=120, tracer_factory=tracer.install_tracer)
        assert plain.error is None and traced.error is None
        assert plain.exit_code == traced.exit_code == 0
        assert plain.stdout.encode() == traced.stdout.encode()
        assert plain.trace is None and traced.trace["names"]


class TestRunner:
    def test_operation_output_and_timing(self):
        res = runner.run_op(["h-trivial", "@p2", "--coeffs=-1,0,0", "--format", "text"], 60)
        assert (res.exit_code, res.stdout, res.error) == (0, "true\n", None)
        assert res.seconds > 0 and res.maxrss_kb > 0

    def test_usage_error_is_an_exit_code(self):
        res = runner.run_op(["cohomology", "@nosuchfan", "--coeffs=1"], 60)
        assert res.exit_code == 3 and res.error is None

    def test_child_of_a_warm_parent_is_refused(self):
        def warm_then_run():
            from stackycoh.catalog import catalog_fan

            catalog_fan("p2")
            return runner.run_op(["pic", "@p2"], 60).error

        assert "catalog_fan" in _in_child(warm_then_run)


class TestWorkloads:
    @pytest.mark.parametrize("workload", workloads.WORKLOADS)
    def test_seed_fixes_the_argv_list(self, workload):
        strata = workloads.load_reference()[workload]

        def argvs(seed):
            return [e["argv"] for e in workloads.operations(strata, workload, seed)]

        assert argvs(1) == argvs(1)
        assert argvs(1) != argvs(2)
        assert len(argvs(1)) == len(strata)

    def test_query_has_at_least_100_operations(self):
        assert len(workloads.load_reference()["query"]) >= 100

    def test_check_reports_wrong_results(self):
        entry = workloads.load_reference()["query"][0][0]
        assert workloads.check(entry, 0, entry["stdout"]) is None
        assert workloads.check(entry, 2, entry["stdout"]) == "exit code 2"
        assert workloads.check(entry, 0, entry["stdout"] + " ") is not None

    def test_closed_form_catches_a_wrong_dimension(self):
        argv = ["cohomology", "@p2", "--coeffs=-3,0,0"]
        good = json.dumps({"h": [0, 0, 1]})
        bad = json.dumps({"h": [0, 1, 1]})
        assert workloads.closed_form_problem(argv, good) is None
        assert "closed form" in workloads.closed_form_problem(argv, bad)


class TestClosedForms:
    def test_projective_line_and_plane(self):
        assert [closed_forms.h_pn(1, d) for d in (-3, -2, -1, 0, 2)] == [
            (0, 2), (0, 1), (0, 0), (1, 0), (3, 0)
        ]
        assert closed_forms.h_pn(2, -4) == (0, 0, 3)
        assert closed_forms.h_pn(2, 2) == (6, 0, 0)

    def test_kuenneth_on_a_product_fan(self):
        # O(-2) on the first P1 and O(1) on P2: h^1 = 1 * 3
        h = closed_forms.closed_form("@p1xp2", (-2, 0, 1, 0, 0))
        assert h == (0, 3, 0, 0)

    def test_product_fans_cover_every_product(self):
        for name in inputs.PRODUCTS:
            assert f"bench/fans/{name}.json" in closed_forms.FACTORS


class TestInputs:
    def test_files_match_the_helper_and_the_pins(self):
        built = _in_child(inputs.build_fans)
        for name, data in built.items():
            assert json.loads(inputs.fan_path(name).read_text()) == data
        assert _in_child(inputs.fingerprint_mismatches) == []

    def test_product_fan_layout(self):
        class Line:
            rank, rays, nrays = 1, ((1,), (-1,)), 2
            max_cones = (frozenset({1}), frozenset({2}))

        fan = inputs.product_fan([Line, Line])
        assert fan["rays"] == [[1, 0], [-1, 0], [0, 1], [0, -1]]
        assert fan["max_cones"] == [[0, 2], [0, 3], [1, 2], [1, 3]]


def test_benchmark_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


class TestBenchmarkFile:
    SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_per_layer_names_match_the_tracer(self):
        names = list(tracer.layer_metrics(tracer.LayerTotals(), 1.0))
        assert names == [m["name"] for m in self.SPEC["per_layer"]]

    def test_one_run_prints_every_end_to_end_metric(self):
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "scan", "--seed", "7",
             "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == len(workloads.load_reference()["scan"])
        spec = {m["name"]: m["unit"] for m in self.SPEC["end_to_end"]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == spec
        assert all(m["value"] > 0 for m in result["metrics"].values())
