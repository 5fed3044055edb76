"""Bundled fan catalog.

Small complete simplicial stacky fans used by the CLI, the test suite and
the acceptance criteria: projective spaces and products, weighted (stacky)
variants with non-primitive ray points, and a few rank-3 fans chosen for
their collinear-pair and vanishing behaviour.
"""

from __future__ import annotations

from functools import lru_cache

from .fan import FAN_CACHE_SIZE, StackyFan, make_fan

_DEFS: dict[str, tuple[int, list[tuple[int, ...]], list[tuple[int, ...]]]] = {
    # rank 1
    "p1": (1, [(1,), (-1,)], [(1,), (2,)]),
    "p1_21": (1, [(2,), (-1,)], [(1,), (2,)]),
    "p1_22": (1, [(2,), (-2,)], [(1,), (2,)]),
    # rank 2
    "p2": (2, [(1, 0), (0, 1), (-1, -1)], [(1, 2), (2, 3), (3, 1)]),
    "p2_211": (2, [(2, 0), (0, 1), (-1, -1)], [(1, 2), (2, 3), (3, 1)]),
    "p2_221": (2, [(2, 0), (0, 2), (-1, -1)], [(1, 2), (2, 3), (3, 1)]),
    "p1xp1": (
        2,
        [(1, 0), (-1, 0), (0, 1), (0, -1)],
        [(1, 3), (3, 2), (2, 4), (4, 1)],
    ),
    "p1xp1_2131": (
        2,
        [(2, 0), (-1, 0), (0, 3), (0, -1)],
        [(1, 3), (3, 2), (2, 4), (4, 1)],
    ),
    "hirzebruch1": (
        2,
        [(1, 0), (0, 1), (-1, 1), (0, -1)],
        [(1, 2), (2, 3), (3, 4), (4, 1)],
    ),
    "quad4": (
        2,
        [(1, 0), (0, 1), (-1, 2), (-1, -1)],
        [(1, 2), (2, 3), (3, 4), (4, 1)],
    ),
    "cyclic5": (
        2,
        [(1, 0), (1, 1), (0, 1), (-1, 0), (0, -1)],
        [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)],
    ),
    # rank 3
    "p3": (
        3,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
        [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)],
    ),
    "p3_2111": (
        3,
        [(2, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
        [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)],
    ),
    "blp3_123": (
        3,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 2, 3)],
        [(1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 5), (1, 3, 5), (2, 3, 5)],
    ),
    "blp3_center": (
        3,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 1, 1)],
        [(1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 5), (1, 3, 5), (2, 3, 5)],
    ),
    "tilted_bipyramid": (
        3,
        [(1, 0, 0), (0, 1, 0), (-1, -1, 1), (0, 0, 1), (0, 0, -1)],
        [(1, 2, 4), (2, 3, 4), (3, 1, 4), (1, 2, 5), (2, 3, 5), (3, 1, 5)],
    ),
    "p1xp2": (
        3,
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, -1)],
        [(1, 3, 4), (1, 4, 5), (1, 5, 3), (2, 3, 4), (2, 4, 5), (2, 5, 3)],
    ),
    "p1xp1xp1": (
        3,
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
        [
            (1, 3, 5),
            (1, 3, 6),
            (1, 4, 5),
            (1, 4, 6),
            (2, 3, 5),
            (2, 3, 6),
            (2, 4, 5),
            (2, 4, 6),
        ],
    ),
}


def catalog_names() -> tuple[str, ...]:
    return tuple(sorted(_DEFS))


@lru_cache(maxsize=FAN_CACHE_SIZE)
def catalog_fan(name: str) -> StackyFan:
    """Build (and validate) a catalog fan by name."""
    if name not in _DEFS:
        raise KeyError(f"unknown catalog fan {name!r}; see catalog_names()")
    rank, rays, cones = _DEFS[name]
    return make_fan(rank, rays, cones)

