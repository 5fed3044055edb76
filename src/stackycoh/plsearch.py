"""Piecewise-linear functions on a fan and infinite-family detection.

A function linear on every maximal cone is stored by its ray values. The
search looks for a non-linear such function vanishing at one ray on every
cone; when it exists, translating it sweeps out infinitely many classes
with no cohomology at all, and the report classifies the fan accordingly.
A family r*psi - e_s checks psi once for all its r. The relations come
from the circuits of cohomline, the ones its table decides classes by,
through one row table per fan (_rows): a function is linear when every
circuit kills it, and it vanishes at v_s on every cone when e_s and the
circuits through s whose other rays lie in a maximal cone kill it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from operator import mul
from typing import Optional, Sequence

from .cohomline import Limits, circuits, first_outside_interiors, h_trivial_flags
from .exactlin import IntVector, int_kernel, int_tuple
from .fan import FAN_CACHE_SIZE, StackyFan, collinear_pairs, neighborhood, ray_index
from .picard import LineBundleClass, box_points, class_at, class_of, pic_structure
from .record import Record

RatVector = "tuple[Fraction, ...]"  # fractions is imported only where psi values are built
Rational = "int | Fraction"

INFINITELY_MANY = "InfinitelyMany"
FINITELY_MANY = "FinitelyMany"
UNDETERMINED = "Undetermined"


class PLFunction(Record):
    """A function determined by its values on the rays, linear per cone."""

    values: RatVector

    @property
    def is_integral(self) -> bool:
        return all(v.denominator == 1 for v in self.values)


def pl_function(values: Sequence[Rational]) -> PLFunction:
    from fractions import Fraction
    return PLFunction(tuple(map(Fraction, values)))


def _dot(x: Sequence[Rational], y: Sequence[Rational]) -> Rational:
    return sum(map(mul, x, y))


def is_linear(fan: StackyFan, psi: PLFunction) -> bool:
    """Whether psi is one linear form on the whole fan."""
    return not any(_dot(row, psi.values) for row in _rows(fan)[0])


@lru_cache(maxsize=FAN_CACHE_SIZE)
def _rows(fan: StackyFan) -> tuple[tuple[IntVector, ...], ...]:
    """One table per fan: entry 0 holds the circuits, entry s (1-based) the rows at ray s.

    The rows at s are e_s and the circuits through s whose other rays lie in
    a maximal cone without s. A value vector is linear when every circuit
    kills it, since the circuits span the relations. Its linear part on a
    maximal cone sigma kills v_s when e_s kills it if s is in sigma; else
    v_s = sum u_i v_i over sigma, and e_s - u, the one relation on sigma
    and s, is a circuit through s with its other rays in sigma. Each such
    circuit arises so, as such a sigma cannot hold s, and where e_s kills
    c, e_s - u kills c exactly when u does: the rows at s span the forms
    of the cones at v_s.
    """
    relations = circuits(fan)[1]
    n = fan.nrays
    bits = [1 << i for i in range(n)]  # ray i is bit i - 1
    outside = [~sum(bits[i - 1] for i in c) for c in fan.max_cones]  # the complements
    table = [relations] + [[(0,) * (s - 1) + (1,) + (0,) * (n - s)] for s in range(1, n + 1)]
    for c in relations:
        mask = sum(compress(bits, c))
        for s, bit in compress(enumerate(bits, 1), c):
            # a cone's rays are independent, so a cone that holds the other rays of c lacks s
            if 0 in map((mask ^ bit).__and__, outside):
                table[s].append(c)
    return tuple(map(tuple, table))


def degenerate_space(fan: StackyFan, s: int) -> tuple[tuple[IntVector, ...], int]:
    """Basis and dimension of the value vectors whose linear parts kill v_s.

    Each maximal cone asks that its form at v_s kill the value vector c;
    the rows at s span these forms. The basis vectors are primitive integer
    vectors (exactlin.int_kernel), which depend only on that span.
    """
    basis = int_kernel(_rows(fan)[ray_index(fan, s)], fan.nrays)
    return basis, len(basis)


def find_degenerate_psi(fan: StackyFan) -> Optional[tuple[int, PLFunction]]:
    """The first ray carrying a non-linear vanishing function, if any.

    Rays are tried in ascending order; psi takes the coprime integer
    values of the first kernel basis vector outside the linear subspace.
    Every row at s kills psi, so every linear part of psi lies in v_s^perp,
    of dimension m - 1, and the linear parts span less than the rank.
    """
    m = fan.rank
    for s in range(1, fan.nrays + 1):
        basis, dim = degenerate_space(fan, s)
        if dim <= m - 1:
            continue
        for vec in basis:
            if any(_dot(c, vec) for c in _rows(fan)[0]):
                if any(_dot(row, vec) for row in _rows(fan)[s]):
                    raise AssertionError("every row at the ray must kill psi")
                return s, pl_function(vec)
        raise AssertionError("kernel above the linear dimension must leave it")
    return None


def family_classes(
    fan: StackyFan, s: int, psi: PLFunction, r_range: tuple[int, int]
) -> list[LineBundleClass]:
    """The classes with coefficients r*psi(v_i) off the ray s and -1 at s, r = lo..hi.

    psi is checked once: integer values that vanish at v_s on every cone.
    """
    s = ray_index(fan, s)
    if not psi.is_integral:
        raise ValueError("family construction needs integer psi values")
    values = [int(v) for v in psi.values]
    if any(_dot(row, values) for row in _rows(fan)[s]):
        raise ValueError("psi must vanish at the chosen ray on every cone")
    lo, hi = int_tuple(r_range, "integer family bounds")
    family = ([-1 if i == s else r * v for i, v in enumerate(values, 1)] for r in range(lo, hi + 1))
    return [class_of(fan, a) for a in family]


def family_class(fan: StackyFan, s: int, psi: PLFunction, r: int) -> LineBundleClass:
    """The class with coefficients r*psi(v_i) off the ray s and -1 at s."""
    return family_classes(fan, s, psi, (r, r))[0]


def normalize_at_ray(fan: StackyFan, f_values: PLFunction, s: int) -> PLFunction:
    """Subtract a generic form agreeing with f at v_s.

    The result g vanishes at v_s and is nonzero at every ray off the line
    through v_s; a globally linear input collapses to the zero function.
    """
    from fractions import Fraction
    s = ray_index(fan, s)
    m, n = fan.rank, fan.nrays
    if is_linear(fan, f_values):
        # the one form of a linear f agrees with it at every ray
        return pl_function([0] * n)
    vs = fan.ray(s)
    fs = f_values.values[s - 1]
    j0 = next(j for j in range(m) if vs[j] != 0)
    free = [j for j in range(m) if j != j0]
    on_line = {s}.union(*(p for p in collinear_pairs(fan) if s in p))
    off_line = [i for i in range(1, n + 1) if i not in on_line]
    q = 0
    while True:
        q += 1
        # the form with 1/q, 1/q^2, ... at the free columns, and at j0 the value that gives f at v_s
        mq = [Fraction(0)] * m
        for t, j in enumerate(free, 1):
            mq[j] = Fraction(1, q**t)
        mq[j0] = (fs - _dot(mq, vs)) / vs[j0]
        vals = tuple(f - _dot(mq, r) for f, r in zip(f_values.values, fan.rays))
        if all(vals[i - 1] != 0 for i in off_line):
            return PLFunction(vals)


def sign_changes(fan: StackyFan, g: PLFunction, s: int) -> int:
    """Sign alternations of g around the link cycle of the ray s.

    Signs partition values into non-negative and negative. Requires rank 3,
    a vanishing value at s, and nonzero values on the cycle.
    """
    s = ray_index(fan, s)
    if fan.rank != 3:
        raise ValueError("sign counting needs a rank 3 fan")
    nb = neighborhood(fan, s)
    if g.values[s - 1] != 0:
        raise ValueError("the function must vanish at the chosen ray")
    vals = [g.values[i - 1] for i in nb.cycle]
    if any(v == 0 for v in vals):
        raise ValueError("zero value on the link cycle")
    classes = [0 if v >= 0 else 1 for v in vals]
    k = len(classes)
    return sum(1 for t in range(k) if classes[t] != classes[(t + 1) % k])


class CriterionReport(Record):
    """Evidence bundle for the finite-or-infinite classification."""

    collinear_pair_count: int
    degenerate_psi: Optional[tuple[int, PLFunction]]
    statement3_witness: Optional[LineBundleClass]
    sampled_family_checks: tuple[tuple[int, bool], ...]
    verdict: str


def criterion_report(
    fan: StackyFan,
    search_box: Sequence = (-3, 3),
    r_range: tuple[int, int] = (-5, 5),
    limits: Limits = Limits(),
) -> CriterionReport:
    pairs = collinear_pairs(fan)
    found = find_degenerate_psi(fan)

    points = [y for y in box_points(fan, search_box) if any(y)]
    k = first_outside_interiors(fan, points, limits)
    witness = None if k is None else class_at(pic_structure(fan), points[k])

    checks: tuple[tuple[int, bool], ...] = ()
    if found is not None:
        lo, hi = r_range
        points = [c.point for c in family_classes(fan, *found, r_range)]
        checks = tuple(zip(range(lo, hi + 1), h_trivial_flags(fan, points, limits)))
        verdict = INFINITELY_MANY
    elif fan.rank == 3 and len(pairs) <= 1:
        verdict = FINITELY_MANY
    else:
        verdict = UNDETERMINED
    return CriterionReport(
        collinear_pair_count=len(pairs),
        degenerate_psi=found,
        statement3_witness=witness,
        sampled_family_checks=checks,
        verdict=verdict,
    )
