"""Cohomology of line bundle classes and H-triviality decisions.

Every computation reduces to sign systems over the fan's rays: a class a
and an index set I carve out the polyhedron of linear functionals whose
value pattern is non-negative exactly on I. Counting integer points of
the weak systems over the family Delta gives all cohomology dimensions.
The rows of both the weak and the strict system depend only on I, so
each (fan, I) pair has one Fourier-Motzkin tower, and a class only
enters through the right-hand side.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from itertools import product
from operator import neg
from typing import Iterable, Optional, Sequence

from .exactlin import (
    DEFAULT_CAP,
    IntegerPoints,
    IntMatrix,
    IntVector,
    PointsStatus,
    Tower,
    build_tower,
    tower_feasible,
    tower_points,
)
from .fan import StackyFan
from .homology import DEFAULT_DELTA_CAP, delta_family
from .picard import LineBundleClass, class_from_canonical, pic_structure


class PropernessError(Exception):
    pass


class CapExceededError(Exception):
    pass


@dataclass(frozen=True)
class Limits:
    """The enumeration budgets of one computation.

    cap bounds the candidate values spent on the lattice points of each
    sign system; delta_cap bounds the ray count of a fan whose index
    family Delta is enumerated. Both must be positive.
    """

    cap: int = DEFAULT_CAP
    delta_cap: int = DEFAULT_DELTA_CAP

    def __post_init__(self) -> None:
        for name in ("cap", "delta_cap"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def _signed_rays(fan: StackyFan, I: frozenset[int]) -> IntMatrix:
    # the rows of both sign systems of I: v_i on I, -v_i off I
    return tuple(v if i in I else tuple(map(neg, v)) for i, v in enumerate(fan.rays, 1))


def _tower(fan: StackyFan, I: frozenset[int]) -> Tower:
    return build_tower(_signed_rays(fan, I), fan.rank)


def _rhs(fan: StackyFan, a: Sequence[int], I: frozenset[int], strict: bool) -> list[int]:
    # b(a): -a_i on I, and a_i + 1 (weak) or a_i (strict) off I. The weak
    # system says a_i + f(v_i) >= 0 on I and <= -1 off I (its lattice points
    # count), the strict one > 0 on I and < 0 off I (the open cone of I)
    if len(a) != fan.nrays:
        raise ValueError("coefficient vector length must equal the ray count")
    off = 0 if strict else 1
    return [-int(ai) if i in I else int(ai) + off for i, ai in enumerate(a, 1)]


def _weak_points(
    fan: StackyFan, a: Sequence[int], I: frozenset[int], cap: int, first_only: bool = False
) -> IntegerPoints:
    """Lattice points of the weak system of (a, I), or existence only.

    Without first_only every point is listed; with it the search stops at
    the first point. A feasible unbounded system is a PropernessError
    either way: on a complete fan every Delta member's tower is bounded.
    """
    res = tower_points(_tower(fan, I), _rhs(fan, a, I, False), cap, first_only)
    if res.status is PointsStatus.CAP_EXCEEDED:
        raise CapExceededError(
            f"lattice point enumeration exceeded the cap {cap} on index set {sorted(I)}"
        )
    if res.status is PointsStatus.UNBOUNDED:
        raise PropernessError(
            f"infinite-dimensional contribution from index set {sorted(I)}"
        )
    return res


def cohomology(
    fan: StackyFan, a: Sequence[int], limits: Limits = Limits()
) -> tuple[int, ...]:
    """Dimensions (h^0, ..., h^m) of the class with coefficients a.

    h^j collects, over the family Delta, the weak-system lattice point
    count times the reduced Betti number of C_I in degree m - j - 1.
    """
    m = fan.rank
    h = [0] * (m + 1)
    for I, betti in delta_family(fan, limits.delta_cap).members:
        c = len(_weak_points(fan, a, I, limits.cap).points)
        if c == 0:
            continue
        for j in range(m + 1):
            h[j] += c * betti[m - j]
    return tuple(h)


def _first_member(
    fan: StackyFan, a: Sequence[int], limits: Limits, first_only: bool
) -> Optional[tuple[frozenset[int], IntegerPoints]]:
    for I, _ in delta_family(fan, limits.delta_cap).members:
        res = _weak_points(fan, a, I, limits.cap, first_only)
        if res.status is not PointsStatus.INFEASIBLE:
            return I, res
    return None


def first_forbidden(
    fan: StackyFan, a: Sequence[int], limits: Limits = Limits()
) -> Optional[frozenset[int]]:
    """First index set in Delta whose weak system has an integer point."""
    found = _first_member(fan, a, limits, first_only=True)
    return None if found is None else found[0]


def is_h_trivial(
    fan: StackyFan, a: Sequence[int], limits: Limits = Limits()
) -> bool:
    """Whether every cohomology dimension of the class vanishes."""
    return first_forbidden(fan, a, limits) is None


@dataclass(frozen=True)
class ForbiddenCone:
    """A witness that a class has cohomology: an index set plus a point."""

    index_set: frozenset[int]
    witness: IntVector


def forbidden_cone(
    fan: StackyFan, a: Sequence[int], limits: Limits = Limits()
) -> Optional[ForbiddenCone]:
    """First index set in Delta with lattice points, and the first point."""
    found = _first_member(fan, a, limits, first_only=False)
    if found is None:
        return None
    I, res = found
    return ForbiddenCone(index_set=I, witness=res.points[0])


def _in_interior(fan: StackyFan, a: Sequence[int], I: frozenset[int]) -> bool:
    return tower_feasible(_tower(fan, I), _rhs(fan, a, I, True), (True,) * fan.nrays)


def in_interior_ZI(
    fan: StackyFan,
    a: Sequence[int],
    index_set: Iterable[int],
    limits: Limits = Limits(),
) -> bool:
    """Whether some functional realizes strictly the sign pattern of I."""
    I = frozenset(index_set)
    if I not in delta_family(fan, limits.delta_cap):
        raise ValueError(f"{sorted(I)} is not in the index family of the fan")
    return _in_interior(fan, a, I)


def outside_all_interiors(
    fan: StackyFan, a: Sequence[int], limits: Limits = Limits()
) -> bool:
    return not any(
        _in_interior(fan, a, I) for I, _ in delta_family(fan, limits.delta_cap).members
    )


def _normalize_box(
    fan: StackyFan, box: Sequence
) -> tuple[tuple[int, int], ...]:
    """One (lo, hi) range per free coordinate.

    The box is a flat pair or a single range, applied to every coordinate,
    or one range per coordinate; ValueError names what is wrong.
    """
    st = pic_structure(fan)
    if st.free_rank == 0:
        return ()
    if len(box) == 2 and all(isinstance(x, int) for x in box):
        box = [tuple(box)]
    if len(box) == 1:
        box = list(box) * st.free_rank
    if len(box) != st.free_rank:
        ranges = "1 range" if st.free_rank == 1 else f"1 or {st.free_rank} ranges"
        raise ValueError(f"expected {ranges}, got {len(box)}")
    out = []
    for lo, hi in box:
        lo, hi = int(lo), int(hi)
        if lo > hi:
            raise ValueError(f"empty range {lo}:{hi}")
        out.append((lo, hi))
    return tuple(out)


def box_classes(fan: StackyFan, box: Sequence) -> list[LineBundleClass]:
    """Canonical classes in a free-coordinate box, lexicographic order.

    Every torsion residue combination is paired with every free point.
    """
    st = pic_structure(fan)
    ranges = _normalize_box(fan, box)
    out = []
    for free in product(*(range(lo, hi + 1) for lo, hi in ranges)):
        for torsion in product(*(range(d) for d in st.torsion)):
            out.append(class_from_canonical(fan, free, torsion))
    return out


def _scan_chunk(
    fan: StackyFan, limits: Limits, raws: Sequence[IntVector]
) -> list[bool]:
    return [is_h_trivial(fan, raw, limits) for raw in raws]


def scan_h_trivial(
    fan: StackyFan, box: Sequence, limits: Limits = Limits(), workers: int = 1
) -> tuple[LineBundleClass, ...]:
    """All H-trivial classes in a canonical-coordinate box, in scan order.

    The box bounds the free coordinates (one lo/hi pair per coordinate, or
    a single pair applied to all); every torsion residue combination is
    included. Order is lexicographic in (free, torsion).
    """
    classes = box_classes(fan, box)
    # a pool starts every worker at once, so never more than cores or classes
    workers = min(workers, os.cpu_count() or 1, len(classes))
    if workers <= 1 or len(classes) < 4:
        flags = _scan_chunk(fan, limits, [c.raw for c in classes])
    else:
        chunks: list[list[IntVector]] = [[] for _ in range(workers)]
        for idx, c in enumerate(classes):
            chunks[idx % workers].append(c.raw)
        from concurrent.futures import ProcessPoolExecutor  # keeps multiprocessing off cold starts

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(partial(_scan_chunk, fan, limits), chunks))
        flags = [False] * len(classes)
        for w in range(workers):
            for k, flag in enumerate(results[w]):
                flags[w + k * workers] = flag
    return tuple(c for c, ok in zip(classes, flags) if ok)
