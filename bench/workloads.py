"""Workloads: seeded operation lists drawn from a pool with reference outputs.

Each workload is a list of strata. A stratum holds interchangeable
invocations that do the same work: the same class written with two
linearly equivalent coefficient vectors, a box written as one range or
one range per coordinate, or O(1) placed on different rays of a product
fan. The seed picks one invocation per stratum and the order, so every
seed runs the same mix of work while the program sees different argv
lists. `bench/reference.json` stores the pool with the stdout recorded
for every invocation; `record.py` rebuilds it.

- scan: `scan` over boxes of rank-3 fans. Many classes per process; the
  work is the existence tests in exactlin, sign_polyhedron and the box
  enumeration in picard, with the cheap rank-3 Delta.
- query: one class per cold process over every catalog fan, plus a few
  `report` and `family` calls. Per-process set-up such as fan validation
  weighs heavily, and exactlin counts points instead of testing existence.
- delta: `delta` and `cohomology` of O(1) on rank-4 and rank-5 product
  fans, where the exhaustive Delta in homology does most of the work.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Optional

from closed_forms import FACTORS, closed_form

REFERENCE = Path(__file__).resolve().parent / "reference.json"
WORKLOADS = ("scan", "query", "delta")


def load_reference(path: Path = REFERENCE) -> dict[str, list[list[dict]]]:
    """Strata of every workload; an entry has argv, stdout and classes."""
    return json.loads(path.read_text())["workloads"]


def operations(strata: list[list[dict]], workload: str, seed: int) -> list[dict]:
    """The seeded operation list: one entry per stratum, in seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    ops = [rng.choice(stratum) for stratum in strata]
    rng.shuffle(ops)
    return ops


def _option(argv: list[str], name: str) -> Optional[str]:
    prefix = f"--{name}="
    for arg in argv:
        if arg.startswith(prefix):
            return arg[len(prefix) :]
    return None


def closed_form_problem(argv: list[str], stdout: str) -> Optional[str]:
    """Where the output disagrees with the closed forms, or None.

    Only fans with a closed form are checked; others return None.
    """
    command, source = argv[0], argv[1]
    if source not in FACTORS:
        return None
    payload = json.loads(stdout)

    def vanishes(raw) -> bool:
        return not any(closed_form(source, raw))

    if command == "cohomology":
        coeffs = [int(x) for x in _option(argv, "coeffs").split(",")]
        want = list(closed_form(source, coeffs))
        if payload["h"] != want:
            return f"h {payload['h']} but closed form gives {want}"
    elif command == "h-trivial":
        coeffs = [int(x) for x in _option(argv, "coeffs").split(",")]
        if payload["h_trivial"] != vanishes(coeffs):
            return f"h_trivial {payload['h_trivial']} disagrees with the closed form"
    elif command == "scan":
        for cls in payload["classes"]:
            if not vanishes(cls["raw"]):
                return f"class {cls['raw']} has cohomology by the closed form"
    elif command == "family":
        for row in payload["classes"]:
            if row["h_trivial"] != vanishes(row["class"]["raw"]):
                return f"family r={row['r']} disagrees with the closed form"
    return None


def check(entry: dict, exit_code: Optional[int], stdout: str) -> Optional[str]:
    """Why an invocation's result is wrong, or None when it is right."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    if stdout != entry["stdout"]:
        return "stdout differs from the reference"
    return closed_form_problem(entry["argv"], stdout)
