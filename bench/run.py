"""Cold-start CLI benchmark of stackycoh.

    python3 bench/run.py --workload scan|query|delta --seed N --seconds S --trace 0|1

Run from the root of a checkout. One operation is one `stackycoh` CLI
invocation, run in a child forked from a parent that has imported
`stackycoh.cli` and nothing more (see runner.py), so every operation
starts with cold caches as a real CLI call does. The seeded operation
list of the workload (one pass) is repeated until the time is spent;
every output is checked against its reference and the closed forms.

With --trace 0 the end-to-end metrics are printed; with --trace 1 passes
alternate between untraced and traced, and the per-layer metrics from the
tracer are printed with the tracing overhead. The last line of stdout is
one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
if not (SRC / "stackycoh" / "cli.py").is_file():
    sys.exit(f"no stackycoh sources under {SRC}; run from the root of a checkout")
sys.path.insert(0, str(SRC))

import inputs  # noqa: E402
import runner  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 11
OP_TIMEOUT_S = 120.0
# Seconds the calibration loop of runner.py takes on the reference machine
# (a shared 2-core x86-64 machine, CPython 3.11). Fixed: every reported
# time depends on it.
REFERENCE_CALIBRATION_S = 0.001


def _parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_seconds() -> float:
    """Median time to start a fresh interpreter and import stackycoh.cli.

    One untimed start first compiles the bytecode caches of a new checkout.
    Each start is scaled by the calibration loop timed around it.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import stackycoh.cli"]
    subprocess.run(cmd, env=env, check=True)
    times = []
    for _ in range(SETUP_REPEATS):
        before = runner.calibrate()
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        seconds = time.perf_counter() - start
        calibration = (before + runner.calibrate()) / 2
        times.append(seconds * REFERENCE_CALIBRATION_S / calibration)
    return statistics.median(times)


class Measurement:
    """Outcome of every operation run, with the scaled times of each.

    A time is scaled to a machine on which the calibration loop of
    runner.py takes REFERENCE_CALIBRATION_S: the operation's seconds times
    that reference over the calibration time measured around it.
    """

    def __init__(self, ops: list[dict]) -> None:
        self.ops = ops
        self.times: list[list[float]] = [[] for _ in ops]
        self.maxrss_kb = 0
        self.attempted = 0
        self.failed = 0

    def run_pass(self, tracer_factory=None, totals=None) -> float:
        """Run every operation once; return the summed scaled seconds.

        With `totals`, the operations are traced, their spans go there with
        the same scaling, and their times are not kept.
        """
        pass_seconds = 0.0
        for entry, times in zip(self.ops, self.times):
            res = runner.run_op(entry["argv"], OP_TIMEOUT_S, tracer_factory)
            self.attempted += 1
            # traced or not, stdout must equal the recorded reference
            problem = res.error or workloads.check(entry, res.exit_code, res.stdout)
            if problem:
                self.failed += 1
                detail = (problem.strip() + "\n" + res.stderr.strip()).splitlines()[-1]
                sys.stderr.write(f"FAILED {' '.join(entry['argv'])}: {detail}\n")
                continue
            self.maxrss_kb = max(self.maxrss_kb, res.maxrss_kb)
            scale = REFERENCE_CALIBRATION_S / res.calibration
            scaled = res.seconds * scale
            pass_seconds += scaled
            if totals is not None:
                totals.add(res.trace, scale)
            else:
                times.append(scaled)
        return pass_seconds


def _repeat(budget_s: float, one_pass) -> None:
    """Run passes until the budget is spent, at least one; no pass is cut.

    A further pass starts only when the slowest pass so far still fits.
    """
    start = time.monotonic()
    slowest = 0.0
    while True:
        t0 = time.monotonic()
        one_pass()
        slowest = max(slowest, time.monotonic() - t0)
        if time.monotonic() - start + slowest > budget_s:
            return


def end_to_end(m: Measurement, seconds: float) -> dict:
    """Metrics over the operations of the pass, each at its median time.

    Taking each operation's median over its repeats first keeps a single
    slow repeat from setting a percentile that falls between two groups
    of operations of different cost.
    """
    setup = setup_seconds()
    _repeat(seconds, m.run_pass)
    done = [(statistics.median(t), e["classes"]) for t, e in zip(m.times, m.ops) if t]
    op_ms = [t * 1000 for t, _ in done] or [0.0]
    total_s = sum(t for t, _ in done) or float("inf")
    print(
        f"samples: {len(done)} operations, each the median of its "
        f"{min(map(len, m.times))} to {max(map(len, m.times))} timed runs; "
        f"setup the median of {SETUP_REPEATS} starts"
    )
    return {
        "setup_s": (setup, "s"),
        "ops_per_s": (len(done) / total_s, "1/s"),
        "op_p50_ms": (statistics.median(op_ms), "ms"),
        "op_p90_ms": (_p90(op_ms), "ms"),
        "classes_per_s": (sum(c for _, c in done) / total_s, "1/s"),
        "peak_rss_mb": (m.maxrss_kb / 1024, "MB"),
    }


def _p90(values: list[float]) -> float:
    """90th percentile, interpolated between samples and never beyond them."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def traced(m: Measurement, seconds: float) -> dict:
    totals = tracer.LayerTotals()
    sums = {"plain": 0.0, "traced": 0.0}

    def pair() -> None:
        sums["plain"] += m.run_pass()
        sums["traced"] += m.run_pass(tracer.install_tracer, totals)

    _repeat(seconds, pair)
    overhead = tracer.ratio(sums["traced"], sums["plain"])
    print(f"samples: {totals.ops} traced operations, {sum(map(len, m.times))} untraced")
    return tracer.layer_metrics(totals, overhead)


def main(argv=None) -> int:
    args = _parse_args(argv)
    os.chdir(ROOT)
    bad, _ = runner.call_in_child(inputs.fingerprint_mismatches, OP_TIMEOUT_S)
    if bad:
        sys.stderr.write(f"input fans drifted from their pinned fingerprints: {', '.join(bad)}\n")
        return 2
    ops = workloads.operations(
        workloads.load_reference()[args.workload], args.workload, args.seed
    )
    m = Measurement(ops)
    metrics = (traced if args.trace else end_to_end)(m, args.seconds)
    print(f"workload {args.workload}, seed {args.seed}")
    print(f"failed_ratio {m.failed / m.attempted:.6g} ratio ({m.failed} of {m.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
