"""Cohomology of line bundle classes and H-triviality decisions.

Every computation reduces to sign systems over the fan's rays: a class a
and an index set I carve out the polyhedron of linear functionals whose
value pattern is non-negative exactly on I. Counting integer points of
the weak systems over the family Delta gives all cohomology dimensions.

Both sign systems of I have the rows v_i on I and -v_i off I, and a class
a enters through the right-hand side b(a) = s*a + o: s_i = -1 on I and
+1 off I, o_i = 1 off I for the weak system and o = 0 for the strict one.
A circuit is a linear relation lambda among the rays of minimal support;
it conforms to I when it is positive only on I and negative only off I.
The conforming circuits are the constant rows of a full Fourier-Motzkin
elimination of I (Rockafellar 1969): a conforming signed circuit sigma asks
sigma . a >= c, c the sum of the absolute values of its negative entries
(weak), or sigma . a > 0 (strict, the open cone of I). By Stiemke's lemma
the system is bounded exactly when the rays span and the conforming
circuits cover every ray, as on a complete fan.

Each fan has one table of the circuits and of a row per member I of
Delta, holding the bitmask of the signed circuits that conform to I. One
dot product per circuit gives the mask of those a class fails, and a row
is feasible exactly when the two masks are disjoint. The table is the one
place that decides feasibility and boundedness; a row builds its tower
when first reached feasible. A feasible row with unit pivots has a point
(_DeltaRow), so the one flag loop answers it within a cap of m without a
walk; counts, witnesses and other rows walk. The strict test lives here
alone. A batch is a list of canonical points y (picard), decided against
one table whose circuits are composed once as lambda u_inv, since
lambda . a = (lambda u_inv) . y; u_inv y is built only for a walked row.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from itertools import combinations
from math import gcd
from operator import mul, neg
from typing import Iterator, NamedTuple, Optional, Sequence

from .exactlin import DEFAULT_CAP, IntVector, TowerLevel, build_tower, int_kernel, mat_mul_int, tower_points
from .exactlin import int_tuple, unit_pivots
from .fan import FAN_CACHE_SIZE, StackyFan
from .homology import DEFAULT_DELTA_CAP, BettiVector, delta_family, delta_set
from .picard import LineBundleClass, box_points, class_at, class_of, coefficient_vector, pic_structure
from .picard import box_classes  # re-exported: callers import it from here


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
            if int_tuple([getattr(self, name)], f"integer {name}")[0] <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class _DeltaRow:
    """One member I of Delta, with everything a class is tested against.

    sign is s of the weak right-hand side b(a) = s*a + o, and bit k of
    conforming says that signed circuit k of the table conforms to I. The
    table has decided that the system is bounded, and a row is walked only
    when the table finds its weak system rationally feasible.

    unit says that the tower has unit pivots (exactlin.unit_pivots); then a
    feasible row has a lattice point, which the first-point walk finds with
    m candidates. Proof: level k is the exact projection of level k + 1, so
    over a prefix that solves level k - 1 (at k = 0, as the row is feasible)
    the fiber of x_k is a nonempty interval, and over an integer prefix its
    endpoint on the unit side is an integer: the walk's first candidate.
    """

    index_set: frozenset[int]
    betti: BettiVector
    sign: IntVector
    conforming: int
    fan: StackyFan = field(compare=False, repr=False)

    @cached_property
    def tower(self) -> tuple[TowerLevel, ...]:
        """The tower of the rows v_i on I and -v_i off I, on first use."""
        rows = tuple(tuple(-s * x for x in v) for s, v in zip(self.sign, self.fan.rays))
        return build_tower(rows, self.fan.rank)

    @cached_property
    def unit(self) -> bool:
        return unit_pivots(self.tower)

    def points(self, a: IntVector, cap: int, first_only: bool = False) -> tuple[IntVector, ...]:
        """Lattice points of the weak system of a, or only the first one."""
        b = [s * x + (s > 0) for s, x in zip(self.sign, a)]
        points = tower_points(self.tower, b, cap, first_only)
        if points is None:
            raise CapExceededError(
                f"lattice point enumeration exceeded the cap {cap} on index set {sorted(self.index_set)}"
            )
        return points


class _DeltaTable(NamedTuple):
    """A fan's rows in Delta's order, and (lambda, c+, -c-) per circuit lambda.

    c+ (c-) sums the absolute values of lambda's negative (positive) entries.
    Of the K circuits, signed circuit k is lambda_k and k + K is -lambda_k.
    """

    rows: tuple[_DeltaRow, ...]
    circuits: tuple[tuple[IntVector, int, int], ...]


def _circuits(fan: StackyFan) -> tuple[int, tuple[IntVector, ...]]:
    """The dimension d of the relations lambda with sum lambda_i v_i = 0, and their circuits.

    A circuit is a primitive relation of minimal support, given with one of
    its two signs. With B a kernel basis, the relations that vanish on a set
    Z of d - 1 rays are y B for y orthogonal to the columns of B at Z; when
    those y form a line, y B is a circuit, and every circuit arises so. A Z
    inside the zero set of a circuit already found can only give that
    circuit again, so it is skipped.
    """
    n = fan.nrays
    basis = int_kernel(tuple(zip(*fan.rays)), n)
    d = len(basis)
    if d == 0:
        return 0, ()
    columns = tuple(zip(*basis))
    found: list[IntVector] = []
    zero_sets: list[int] = []
    for Z in combinations(range(n), d - 1):
        mask = sum(1 << j for j in Z)
        if any(mask & z == mask for z in zero_sets):
            continue
        y = int_kernel(tuple(columns[j] for j in Z), d)
        if len(y) != 1:
            continue
        relation = [sum(map(mul, y[0], col)) for col in columns]
        g = gcd(*relation)
        found.append(tuple(x // g for x in relation))
        zero_sets.append(sum(1 << j for j, x in enumerate(relation) if not x))
    return d, tuple(found)


@lru_cache(maxsize=FAN_CACHE_SIZE)
def _delta_table(fan: StackyFan) -> _DeltaTable:
    """One row per member of Delta, in Delta's order, with no tower built.

    Each circuit enters with both signs. A signed circuit conforms to I
    unless it is positive at a ray off I or negative at a ray on I; bit k
    of positive[i] (negative[i]) says that signed circuit k is positive
    (negative) at ray i. An unbounded system is a PropernessError for
    every class.
    """
    n = fan.nrays
    d, circuits = _circuits(fan)
    signed = circuits + tuple(tuple(map(neg, c)) for c in circuits)
    positive, negative = [0] * n, [0] * n
    for k, relation in enumerate(signed):
        for i, x in enumerate(relation):
            if x > 0:
                positive[i] |= 1 << k
            elif x < 0:
                negative[i] |= 1 << k
    full = (1 << len(signed)) - 1
    rows = []
    for I, betti in delta_set(fan):
        broken = 0
        for i, p, q in zip(range(1, n + 1), positive, negative):
            broken |= q if i in I else p
        conforming = full & ~broken
        # Stiemke: bounded exactly when the rays span and the conforming circuits cover them
        if d != n - fan.rank or not all(conforming & (p | q) for p, q in zip(positive, negative)):
            raise PropernessError(f"infinite-dimensional contribution from index set {sorted(I)}")
        sign = tuple(-1 if i in I else 1 for i in range(1, n + 1))
        rows.append(_DeltaRow(I, betti, sign, conforming, fan))
    bounds = tuple((c, -sum(x for x in c if x < 0), -sum(x for x in c if x > 0)) for c in circuits)
    return _DeltaTable(tuple(rows), bounds)


def _table(fan: StackyFan, limits: Limits) -> _DeltaTable:
    # the Delta cap is enforced before the table is looked up or built
    delta_family(fan, limits.delta_cap)
    return _delta_table(fan)


def _canonical_table(fan: StackyFan, points: Sequence[IntVector], limits: Limits) -> _DeltaTable:
    """The table of a batch of canonical points, its circuits composed once as lambda u_inv."""
    st = pic_structure(fan)
    # the points come from picard as ints, so only their lengths are checked, once per batch
    for y in points:
        if len(y) != len(st.u):
            raise ValueError(f"canonical point length must be {len(st.u)}, got {len(y)}")
    table = _table(fan, limits)
    return table._replace(circuits=tuple((mat_mul_int([c], st.u_inv)[0], p, q) for c, p, q in table.circuits))


def _feasible(table: _DeltaTable, a: IntVector, strict: bool = False) -> Iterator[_DeltaRow]:
    """The rows whose weak system of a is rationally feasible, or whose open cone holds a.

    With t = lambda . a, lambda fails when t < c+ and -lambda when t > -c-,
    or strictly when t <= 0 and t >= 0; a row fails with a conforming one.
    """
    k = len(table.circuits)
    failing = 0
    for bit, (relation, lo, hi) in enumerate(table.circuits):
        t = sum(map(mul, relation, a))  # an integer, so t < 1 is t <= 0
        if t < (1 if strict else lo):
            failing |= 1 << bit
        if t > (-1 if strict else hi):
            failing |= 1 << (bit + k)
    return (row for row in table.rows if not row.conforming & failing)


def cohomology(fan: StackyFan, a: Sequence[int], limits: Limits = Limits()) -> tuple[int, ...]:
    """Dimensions (h^0, ..., h^m) of the class with coefficients a.

    h^j collects, over the family Delta, the weak-system lattice point
    count times the reduced Betti number of C_I in degree m - j - 1.
    """
    a = coefficient_vector(fan, a)
    m = fan.rank
    h = [0] * (m + 1)
    for row in _feasible(_table(fan, limits), a):
        c = len(row.points(a, limits.cap))
        for j in range(m + 1):
            h[j] += c * row.betti[m - j]
    return tuple(h)


@dataclass(frozen=True)
class ForbiddenCone:
    """A witness that a class has cohomology: an index set plus a point."""

    index_set: frozenset[int]
    witness: IntVector


def forbidden_cone(
    fan: StackyFan, a: Sequence[int], limits: Limits = Limits()
) -> Optional[ForbiddenCone]:
    """First index set in Delta with lattice points, and its first point.

    The search stops at that point, so the cap bounds only the candidates
    visited before it.
    """
    a = coefficient_vector(fan, a)
    for row in _feasible(_table(fan, limits), a):
        points = row.points(a, limits.cap, first_only=True)
        if points:
            return ForbiddenCone(row.index_set, points[0])
    return None


def is_h_trivial(fan: StackyFan, a: Sequence[int], limits: Limits = Limits()) -> bool:
    """Whether every cohomology dimension of the class vanishes."""
    return forbidden_cone(fan, a, limits) is None


def first_outside_interiors(
    fan: StackyFan, points: Sequence[IntVector], limits: Limits = Limits()
) -> Optional[int]:
    """Position of the first canonical point that no member's open cone holds, or None."""
    if not points:
        return None
    table = _canonical_table(fan, points, limits)
    return next((k for k, y in enumerate(points) if next(_feasible(table, y, strict=True), None) is None), None)


def outside_all_interiors(fan: StackyFan, a: Sequence[int], limits: Limits = Limits()) -> bool:
    """Whether no member's open cone holds the class: no strictly feasible row."""
    a = coefficient_vector(fan, a)
    _table(fan, limits)
    return first_outside_interiors(fan, [class_of(fan, a).point], limits) == 0


def h_trivial_flags(fan: StackyFan, points: Sequence[IntVector], limits: Limits = Limits()) -> list[bool]:
    """Whether no weak system of each canonical point's class has a lattice point: the one flag loop."""
    if not points:
        return []
    table, st = _canonical_table(fan, points, limits), pic_structure(fan)
    return [
        not any(
            limits.cap >= fan.rank and row.unit
            or row.points(class_at(st, y).raw, limits.cap, first_only=True)
            for row in _feasible(table, y)
        )
        for y in points
    ]


def scan_h_trivial(
    fan: StackyFan, box: Sequence, limits: Limits = Limits(), workers: int = 1
) -> tuple[LineBundleClass, ...]:
    """All H-trivial classes in a canonical-coordinate box, in scan order.

    The box bounds the free coordinates (one lo/hi pair per coordinate, or
    a single pair applied to all); every torsion residue combination is
    included. Order is lexicographic in (free, torsion).
    """
    points = box_points(fan, box)
    # the table is built here, so its errors come before any worker and forked workers inherit it
    _table(fan, limits)
    # a pool starts every worker at once, so never more than cores or classes
    workers = min(workers, os.cpu_count() or 1, len(points))
    if workers <= 1 or len(points) < 4:
        flags = h_trivial_flags(fan, points, limits)
    else:
        from concurrent.futures import ProcessPoolExecutor  # keeps multiprocessing off cold starts

        chunks = [points[w::workers] for w in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(partial(h_trivial_flags, fan, limits=limits), chunks))
        flags = [False] * len(points)
        for w, chunk in enumerate(results):
            flags[w::workers] = chunk
    st = pic_structure(fan)
    return tuple(class_at(st, y) for y, ok in zip(points, flags) if ok)
