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

The circuits of a fan are computed once (circuits), for this table and
for the psi search of plsearch. Each fan has one table of the circuits
and of a row per member I of Delta, holding the bitmask of the signed
circuits that conform to I. One dot product per circuit gives the mask
of those a class fails, and a row is feasible exactly when the two masks
are disjoint. The table is the one place that decides feasibility and
boundedness; a row builds its tower when first reached feasible. A
feasible row with unit pivots has a point (_DeltaRow), so the one flag
loop answers it within a cap of m without a walk; counts, witnesses and
other rows walk. The strict test lives here alone. A batch is a list of
canonical points y (picard), decided against one table whose circuits
are composed once as lambda u_inv, since lambda . a = (lambda u_inv) . y;
u_inv y is built only for a walked row. The flag loop turns a batch of
more points than rows around: a row holds the points outside the union
of its conforming circuits' failing sets, one integer each, and a unit
row answers them at once; from a row that may walk, a class at a time.
"""

from __future__ import annotations

import os
from functools import cached_property, lru_cache, partial, reduce
from itertools import combinations, compress
from math import gcd
from operator import add, mul, neg, or_
from typing import Iterator, Optional, Sequence

from .exactlin import DEFAULT_CAP, IntVector, TowerLevel, build_tower, int_kernel, mat_mul_int, tower_points
from .exactlin import int_det, int_tuple, unit_pivots
from .fan import FAN_CACHE_SIZE, StackyFan
from .homology import DEFAULT_DELTA_CAP, BettiVector, delta_family, delta_set
from .picard import LineBundleClass, box_points, class_at, class_of, coefficient_vector, pic_structure
from .picard import box_classes  # re-exported: callers import it from here
from .record import Record


class PropernessError(Exception):
    pass


class CapExceededError(Exception):
    pass


class Limits(Record):
    """The enumeration budgets of one computation.

    cap bounds the candidate values spent on the lattice points of each
    sign system; delta_cap bounds the ray count of a fan whose index
    family Delta is enumerated. Both must be positive.
    """

    cap: int
    delta_cap: int

    def __init__(self, cap: int = DEFAULT_CAP, delta_cap: int = DEFAULT_DELTA_CAP) -> None:
        for name, value in (("cap", cap), ("delta_cap", delta_cap)):
            if int_tuple([value], f"integer {name}")[0] <= 0:
                raise ValueError(f"{name} must be positive")
        super().__init__(int(cap), int(delta_cap))


class _DeltaRow(Record):
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
    conforming: int  # and the fan, kept for the tower but not a field

    def __init__(self, index_set, betti, sign, conforming, fan: StackyFan) -> None:
        d = self.__dict__
        d["index_set"], d["betti"], d["sign"], d["conforming"], d["fan"] = index_set, betti, sign, conforming, fan

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


class _DeltaTable(Record):
    """A fan's rows in Delta's order, and (lambda, c+, -c-) per circuit lambda.

    c+ (c-) sums the absolute values of lambda's negative (positive) entries.
    Of the K circuits, signed circuit k is lambda_k and k + K is -lambda_k.
    """

    rows: tuple[_DeltaRow, ...]
    circuits: tuple[tuple[IntVector, int, int], ...]


@lru_cache(maxsize=FAN_CACHE_SIZE)
def circuits(fan: StackyFan) -> tuple[int, tuple[IntVector, ...]]:
    """The dimension d of the relations lambda with sum lambda_i v_i = 0, and their circuits.

    A circuit is a primitive relation of minimal support, given with one of
    its two signs. The rows of the kernel basis B are fundamental circuits,
    whose supports, merged where they meet, are the components of the rays'
    matroid (Oxley, Matroid Theory, 2011, ch. 4): a circuit lies in one, and
    one with a single relation has no other. In one of rank r, where the
    relations on r + 1 of its rays S, zero on the rest Z, form a line, it is
    a circuit's, and every circuit arises so. Its entry at j is +-det of the
    rays at S but j if r is the fan's rank (Cramer), else of B's columns at
    Z and j (y B for y . x = det(B_Z, x)); all are 0 where there is no line.
    An S that holds a circuit found before gives only it and is skipped.
    """
    n, bit = fan.nrays, (1).__lshift__
    basis = int_kernel(tuple(zip(*fan.rays)), n)
    components: list[tuple[int, list[IntVector]]] = []  # ray masks, with their rows of B
    for b in basis:
        mask, rows, rest = sum(map(bit, compress(range(n), b))), [b], []
        for other in components:
            if other[0] & mask:
                mask, rows = mask | other[0], rows + other[1]
            else:
                rest.append(other)
        components = rest + [(mask, rows)]
    found: list[IntVector] = []
    for _, rows in components:
        if len(rows) == 1:
            found += rows
            continue
        E = [*compress(range(n), map(any, zip(*rows)))]
        r = len(E) - len(rows)
        primal = len(E) < 2 * len(rows) and r == fan.rank
        vectors = fan.rays if primal else list(zip(*rows))
        dets, small = {}, []  # small: the supports of the circuits on at most r rays
        # T is S on the primal side and Z on the Gale side; c counts its rays before t
        for T in combinations(E, r + 1 if primal else len(rows) - 1):
            bits = sum(map(bit, T))
            if 0 in map((~bits if primal else bits).__and__, small):
                continue
            relation, c = [0] * n, 0
            for t in E:
                inside = bits >> t & 1
                if inside == primal:
                    key = T[:c] + T[c + 1 :] if primal else T[:c] + (t,) + T[c:]
                    if key not in dets:
                        dets[key] = int_det([*map(vectors.__getitem__, key)])
                    relation[t] = -dets[key] if c & 1 else dets[key]
                c += inside
            if g := gcd(*relation):
                found.append(tuple(map(g.__rfloordiv__, relation)))
                if relation.count(0) >= n - r:
                    small.append(sum(map(bit, compress(range(n), relation))))
    return len(basis), tuple(found)


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
    d, relations = circuits(fan)
    signed = relations + tuple(tuple(map(neg, c)) for c in relations)
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
    bounds = tuple((c, -sum(x for x in c if x < 0), -sum(x for x in c if x > 0)) for c in relations)
    return _DeltaTable(tuple(rows), bounds)


def _table(fan: StackyFan, limits: Limits) -> _DeltaTable:
    # the Delta cap is enforced before the table is looked up or built
    delta_family(fan, limits.delta_cap)
    return _delta_table(fan)


def _canonical_table(fan: StackyFan, points: Sequence[IntVector], limits: Limits) -> _DeltaTable:
    """The table of a batch of canonical points, its circuits composed once as lambda u_inv."""
    st = pic_structure(fan)
    # the points come from picard as ints, so only their lengths are checked, once per batch
    if (got := next(filter(len(st.u).__ne__, map(len, points)), None)) is not None:
        raise ValueError(f"canonical point length must be {len(st.u)}, got {got}")
    table = _table(fan, limits)
    composed = mat_mul_int([c for c, _, _ in table.circuits], st.u_inv)
    return _DeltaTable(table.rows, tuple((c, p, q) for c, (_, p, q) in zip(composed, table.circuits)))


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


class ForbiddenCone(Record):
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
    unit = limits.cap >= fan.rank  # then a unit row is answered without a walk

    def trivial(y: IntVector, rows: Iterator[_DeltaRow]) -> bool:
        return not any(unit and row.unit or row.points(class_at(st, y).raw, limits.cap, first_only=True) for row in rows)

    if len(points) <= len(table.rows):
        return [trivial(y, _feasible(table, y)) for y in points]
    return _batch_flags(table, points, lambda row: not (unit and row.unit), trivial)


def _batch_flags(table: _DeltaTable, points: Sequence[IntVector], walks, trivial) -> list[bool]:
    """The flags of a batch, a row at a time for all its points, then a class at a time from a row that may walk."""
    n, columns, fails = len(points), [*zip(*points)], []
    for relation, lo, hi in table.circuits:  # its values over the batch, a coordinate column at a time
        terms = (col if x == 1 else map(x.__mul__, col) for x, col in zip(relation, columns) if x)
        t = tuple(reduce(partial(map, add), terms))
        fails += bytes(map(lo.__gt__, t)), bytes(map(hi.__lt__, t))
    fails = fails[::2] + fails[1::2]  # byte p of fails[k]: point p fails signed circuit k
    failing, undecided = [int.from_bytes(f, "little") for f in fails], int.from_bytes(b"\1" * n, "little")
    for r, row in enumerate(table.rows):
        if not undecided:
            break
        excluded = reduce(or_, compress(failing, map(int, bin(row.conforming)[:1:-1])), 0)
        if undecided & ~excluded and walks(row):
            bits, rest, flags = [1 << k for k in range(len(fails))], table.rows[r:], [False] * n
            for p in compress(range(n), undecided.to_bytes(n, "little")):  # no earlier row holds them
                mask = sum(compress(bits, [f[p] for f in fails]))
                flags[p] = trivial(points[p], (row for row in rest if not row.conforming & mask))
            return flags
        undecided &= excluded
    return [*map(bool, undecided.to_bytes(n, "little"))]


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
    # a pool starts every worker at once, so never more than classes or the cores this process may use
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(workers, cores, len(points))
    if workers <= 1 or len(points) < 4:
        flags = h_trivial_flags(fan, points, limits)
    else:
        from concurrent.futures import ProcessPoolExecutor  # keeps multiprocessing off cold starts

        chunks, flags = [points[w::workers] for w in range(workers)], [False] * len(points)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for w, chunk in enumerate(pool.map(partial(h_trivial_flags, fan, limits=limits), chunks)):
                flags[w::workers] = chunk
    st = pic_structure(fan)
    return tuple(class_at(st, y) for y, ok in zip(points, flags) if ok)
