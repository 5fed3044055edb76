"""Input fans of the benchmark that are not in the bundled catalog.

The rank-4 and rank-5 product fans are built as products of catalog fans;
the antiprism fan is the rank-3 fan with one collinear pair and no
degenerate function used by the plsearch tests. `write_fans` stores them
as JSON under bench/fans/, and every benchmark run checks each file's
`fan_fingerprint` against the value pinned in `FINGERPRINTS`.
"""

from __future__ import annotations

import json
from pathlib import Path

FANS_DIR = Path(__file__).resolve().parent / "fans"

# Products of catalog fans, named by their factors.
PRODUCTS = {
    "p1xp1xp1xp1": ("p1", "p1", "p1", "p1"),
    "p2xp2": ("p2", "p2"),
    "p1xp3": ("p1", "p3"),
    "p1xp1xp2": ("p1", "p1", "p2"),
    "p1xp2xp2": ("p1", "p2", "p2"),
}

ANTIPRISM = {
    "rank": 3,
    "rays": [
        [0, 0, 1],
        [0, 0, -1],
        [4, 0, 1],
        [-2, 3, 1],
        [-2, -3, 1],
        [2, 2, -1],
        [-3, 1, -1],
        [1, -3, -1],
    ],
    "max_cones": [
        [0, 2, 3], [0, 3, 4], [0, 4, 2],
        [1, 5, 6], [1, 6, 7], [1, 7, 5],
        [2, 5, 3], [5, 3, 6], [3, 6, 4],
        [6, 4, 7], [4, 7, 2], [7, 2, 5],
    ],
}

FINGERPRINTS = {
    "antiprism": "b8376e38871ae613",
    "p1xp1xp1xp1": "217f4b901f060632",
    "p2xp2": "653aceb0d71993fd",
    "p1xp3": "68eb366ac8dba3fc",
    "p1xp1xp2": "73cceb3e0a286b67",
    "p1xp2xp2": "6bd7ffae68e4aafd",
}


def product_fan(factors) -> dict:
    """Fan JSON (0-based cones) of the product of the given fans.

    Each factor is a `StackyFan`, whose cones are 1-based. Rays of a
    factor sit in its own coordinate block; a maximal cone of the product
    is one maximal cone per factor.
    """
    rank = sum(f.rank for f in factors)
    rays: list[list[int]] = []
    cones: list[list[int]] = [[]]
    offset = 0
    for f in factors:
        for r in f.rays:
            rays.append([0] * offset + list(r) + [0] * (rank - offset - f.rank))
        base = len(rays) - f.nrays
        cones = [c + [base + i - 1 for i in sorted(fc)] for c in cones for fc in f.max_cones]
        offset += f.rank
    return {"rank": rank, "rays": rays, "max_cones": cones}


def fan_path(name: str) -> Path:
    return FANS_DIR / f"{name}.json"


def build_fans() -> dict[str, dict]:
    """Every non-catalog input fan as JSON data, by name."""
    from stackycoh.catalog import catalog_fan

    out = {"antiprism": ANTIPRISM}
    for name, factors in PRODUCTS.items():
        out[name] = product_fan([catalog_fan(f) for f in factors])
    return out


def write_fans() -> None:
    FANS_DIR.mkdir(exist_ok=True)
    for name, data in build_fans().items():
        fan_path(name).write_text(json.dumps(data, sort_keys=True) + "\n")


def fingerprint_mismatches() -> list[str]:
    """Input fans whose file no longer has its pinned fingerprint."""
    from stackycoh.fan import fan_fingerprint, load_fan

    bad = []
    for name, pinned in FINGERPRINTS.items():
        path = fan_path(name)
        if not path.is_file() or fan_fingerprint(load_fan(path.read_text())) != pinned:
            bad.append(name)
    return bad
