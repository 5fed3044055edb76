"""Rebuild the benchmark inputs: fan files and reference.json.

    python3 bench/record.py

Writes the product and antiprism fans under bench/fans/, builds the
operation pool of every workload from a fixed generator seed, runs each
invocation once in a cold child, and stores its stdout as the reference.
A recorded output that disagrees with the closed forms, or an invocation
that does not exit with 0, stops the recording. Run it only when the
program's output is meant to change; the benchmark compares against it.
"""

from __future__ import annotations

import json
import os
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import runner  # noqa: E402
from closed_forms import FACTORS  # noqa: E402
from workloads import REFERENCE, check  # noqa: E402

GENERATOR_SEED = 1904_00799
COEFF_RANGE = 8
CLASSES_PER_COMMAND = 3

SCAN_BOXES = [
    ("@p1xp1xp1", "-3:3", 3),
    ("@blp3_123", "-6:6", 2),
    ("@p1xp2", "-6:6", 2),
    ("@tilted_bipyramid", "-6:6", 2),
    ("@p3", "-20:20", 1),
]
ANTIPRISM = "bench/fans/antiprism.json"
ANTIPRISM_BOX = "--box=-1:1,0:0,0:0,0:0,0:0"
REPORT_FANS = ("p1xp1", "p1xp2", "hirzebruch1", "cyclic5", "blp3_123", "tilted_bipyramid", "p1xp1xp1")
FAMILY_FANS = ("p1xp1", "p1xp2", "hirzebruch1", "p1xp1xp1")


def _catalog():
    from stackycoh.catalog import catalog_fan, catalog_names

    return {name: (catalog_fan(name).rank, catalog_fan(name).rays) for name in catalog_names()}


def _box_class_count(source: str, box: str) -> int:
    from stackycoh.catalog import catalog_fan
    from stackycoh.cohomline import box_classes
    from stackycoh.fan import load_fan

    fan = catalog_fan(source[1:]) if source.startswith("@") else load_fan(Path(source).read_text())
    ranges = [tuple(int(x) for x in part.split(":")) for part in box.split(",")]
    # one range stands for every free coordinate, as in the CLI
    return len(box_classes(fan, ranges[0] if len(ranges) == 1 else ranges))


def _shifted(a, rays, w):
    return [ai + sum(wj * vj for wj, vj in zip(w, v)) for ai, v in zip(a, rays)]


def pool() -> dict[str, list[list[list[str]]]]:
    """Strata of argv lists for every workload, from the generator seed."""
    rng = random.Random(GENERATOR_SEED)
    catalog, _ = runner.call_in_child(_catalog, timeout=60)

    scan = []
    for source, rng_text, free_rank in SCAN_BOXES:
        forms = {rng_text, ",".join([rng_text] * free_rank)}
        scan.append([["scan", source, f"--box={f}"] for f in sorted(forms)])
    scan.append([["scan", ANTIPRISM, ANTIPRISM_BOX]])

    query = []
    for name, (rank, rays) in catalog.items():
        for command in ("cohomology", "h-trivial"):
            for _ in range(CLASSES_PER_COMMAND):
                a = [rng.randint(-COEFF_RANGE, COEFF_RANGE) for _ in rays]
                w = [0] * rank
                while not any(w):
                    w = [rng.randint(-1, 1) for _ in range(rank)]
                query.append(
                    [
                        [command, f"@{name}", "--coeffs=" + ",".join(map(str, b))]
                        for b in (a, _shifted(a, rays, w))
                    ]
                )
    query += [[["report", f"@{name}", "--box=-1:1"]] for name in REPORT_FANS]
    query += [[["family", f"@{name}"]] for name in FAMILY_FANS]
    query.append([["report", ANTIPRISM, ANTIPRISM_BOX]])

    delta = []
    for name in inputs.PRODUCTS:
        path = f"bench/fans/{name}.json"
        nrays = sum(n + 1 for n in FACTORS[path])
        delta.append([["delta", path]])
        delta.append(
            [
                ["cohomology", path, "--coeffs=" + ",".join("1" if k == i else "0" for k in range(nrays))]
                for i in range(nrays)
            ]
        )
    return {"scan": scan, "query": query, "delta": delta}


def _classes(argv: list[str], stdout: str) -> int:
    """Classes whose cohomology or H-triviality the invocation decides."""
    payload = json.loads(stdout)
    command = argv[0]
    if command in ("cohomology", "h-trivial"):
        return 1
    if command == "scan":
        box = argv[2][len("--box=") :]
        count, _ = runner.call_in_child(lambda: _box_class_count(argv[1], box), timeout=60)
        return count
    if command == "family":
        return len(payload["classes"])
    if command == "report":
        return len(payload["sampled_family_checks"])
    return 0


def main() -> int:
    os.chdir(ROOT)
    # package calls run in children so that this process stays cold
    runner.call_in_child(inputs.write_fans, timeout=60)
    bad, _ = runner.call_in_child(inputs.fingerprint_mismatches, timeout=60)
    if bad:
        sys.stderr.write(f"pinned fingerprints do not match: {', '.join(bad)}\n")
        return 1
    out = {}
    for workload, strata in pool().items():
        recorded = []
        for stratum in strata:
            entries = []
            for argv in stratum:
                res = runner.run_op(argv, timeout=170)
                entry = {"argv": argv, "stdout": res.stdout}
                problem = res.error or check(entry, res.exit_code, res.stdout)
                if problem:
                    sys.stderr.write(f"{' '.join(argv)}: {problem}\n")
                    return 1
                entry["classes"] = _classes(argv, res.stdout)
                entries.append(entry)
            recorded.append(entries)
        out[workload] = recorded
        print(f"{workload}: {len(recorded)} strata, {sum(map(len, recorded))} invocations")
    REFERENCE.write_text(json.dumps({"workloads": out}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
