"""The class group of ray divisors modulo linear equivalence.

A class is a ray-indexed integer vector a, taken modulo the sublattice of
vectors (w . v_i)_i for integer w. Smith normal form of the ray matrix
gives a class its canonical point y, torsion residues then free part, and
u_inv y is a raw representative. Only box_points, class_at and .point know y.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from operator import mul
from typing import Sequence

from .exactlin import IntMatrix, IntVector, int_solve, int_tuple, smith_normal_form
from .fan import FAN_CACHE_SIZE, FanValidationError, StackyFan


@dataclass(frozen=True)
class PicStructure:
    """Canonical coordinates on the class group of a fan.

    The group is Z^free_rank plus cyclic factors of the orders in
    ``torsion``. With U the Smith transform of the ray matrix, ``u`` is the
    rows of U that carry coordinates: y = u a is the torsion entries, each
    read modulo its order, then the free ones. ``u_inv`` is the matching
    columns of U^-1, so u * u_inv = I and a class is u_inv y.
    """

    free_rank: int
    torsion: tuple[int, ...]
    u: IntMatrix
    u_inv: IntMatrix


@lru_cache(maxsize=FAN_CACHE_SIZE)
def pic_structure(fan: StackyFan) -> PicStructure:
    n, m = fan.nrays, fan.rank
    # row i is the ray v_i; relations are the vectors w -> (w . v_i)_i
    s, u, v = smith_normal_form(fan.rays)
    diag = tuple(s[i][i] for i in range(min(n, m)))
    if not all(diag):
        raise FanValidationError("the rays do not span the space, so the fan is not complete")
    torsion = tuple(d for d in diag if d > 1)
    # d_1 | d_2 | ... puts the orders last: rows k.. of U are the coordinates
    k = m - len(torsion)
    if any(d != 1 for d in diag[:k]):
        raise AssertionError("smith normal form diagonal is not a divisibility chain")
    # the solve against columns k.. of I is those columns of adj u = det u * u^-1
    det, adj = int_solve(u, [[int(i == j) for j in range(k, n)] for i in range(n)])
    if det not in (1, -1):
        raise AssertionError("smith normal form transform is not unimodular")
    return PicStructure(
        free_rank=n - m,
        torsion=torsion,
        u=u[k:],
        u_inv=tuple(tuple(det * x for x in row) for row in adj),
    )


@dataclass(frozen=True)
class LineBundleClass:
    """A class in canonical coordinates, with one raw representative kept; point is y."""

    raw: IntVector
    free: IntVector
    torsion: IntVector

    @property
    def point(self) -> IntVector:
        return (*self.torsion, *self.free)


def coefficient_vector(fan: StackyFan, a: Sequence[int]) -> IntVector:
    """The coefficients as a tuple of ints, one per ray.

    TypeError on an entry that is not an int, which int() would truncate.
    """
    if len(a) != fan.nrays:
        raise ValueError("coefficient vector length must equal the ray count")
    return int_tuple(a, "integer coefficients")


def class_of(fan: StackyFan, a: Sequence[int]) -> LineBundleClass:
    raw = coefficient_vector(fan, a)
    st = pic_structure(fan)
    y = [sum(map(mul, row, raw)) for row in st.u]
    torsion = tuple(x % d for x, d in zip(y, st.torsion))
    return LineBundleClass(raw=raw, free=tuple(y[len(torsion) :]), torsion=torsion)


def class_at(st: PicStructure, y: IntVector) -> LineBundleClass:
    """The class u_inv y of a canonical point y, which is not checked or reduced."""
    t = len(st.torsion)
    return LineBundleClass(tuple(sum(map(mul, row, y)) for row in st.u_inv), tuple(y[t:]), tuple(y[:t]))


def class_from_canonical(
    fan: StackyFan, free: Sequence[int], torsion: Sequence[int] = ()
) -> LineBundleClass:
    """A raw representative with the given canonical coordinates.

    The raw vector is u_inv y, y the coordinates with torsion reduced.
    TypeError on a coordinate that is not an int, which int() would truncate.
    """
    st = pic_structure(fan)
    if len(free) != st.free_rank:
        raise ValueError(f"expected {st.free_rank} free coordinates")
    if len(torsion) != len(st.torsion):
        raise ValueError(f"expected {len(st.torsion)} torsion residues")
    coords = int_tuple((*free, *torsion), "integer coordinates")
    residues = tuple(t % d for t, d in zip(coords[st.free_rank :], st.torsion))
    return class_at(st, (*residues, *coords[: st.free_rank]))


def normalize_box(fan: StackyFan, box: Sequence) -> tuple[tuple[int, int], ...]:
    """One (lo, hi) range per free coordinate.

    The box is a flat pair or a single range, applied to every coordinate,
    or one range per coordinate; ValueError names what is wrong, and
    TypeError a bound that is not an int.
    """
    st = pic_structure(fan)
    if st.free_rank == 0:
        return ()
    if len(box) == 2 and not any(isinstance(x, (tuple, list)) for x in box):
        box = [tuple(box)]
    if len(box) == 1:
        box = list(box) * st.free_rank
    if len(box) != st.free_rank:
        ranges = "1 range" if st.free_rank == 1 else f"1 or {st.free_rank} ranges"
        raise ValueError(f"expected {ranges}, got {len(box)}")
    out = []
    for bounds in box:
        lo, hi = int_tuple(bounds, "integer box bounds")
        if lo > hi:
            raise ValueError(f"empty range {lo}:{hi}")
        out.append((lo, hi))
    return tuple(out)


def box_points(fan: StackyFan, box: Sequence) -> list[IntVector]:
    """The canonical points of a free-coordinate box, each free point with every residue in turn."""
    residues = list(product(*map(range, pic_structure(fan).torsion)))
    frees = product(*(range(lo, hi + 1) for lo, hi in normalize_box(fan, box)))
    return [(*t, *free) for free in frees for t in residues]


def box_classes(fan: StackyFan, box: Sequence) -> list[LineBundleClass]:
    """The classes of box_points, in its order."""
    st = pic_structure(fan)
    return [class_at(st, y) for y in box_points(fan, box)]


def class_to_json(cls: LineBundleClass) -> dict:
    return {
        "raw": list(cls.raw),
        "canonical": {"free": list(cls.free), "torsion": list(cls.torsion)},
    }
