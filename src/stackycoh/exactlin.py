"""Exact integer and rational linear algebra.

Everything here runs on Python ints and fractions.Fraction; no floating
point enters anywhere. The module provides the normal forms, kernels and
the Fourier-Motzkin machinery that the rest of the package is built on:
Smith normal form with unimodular transforms, fraction-free adjugates,
reduced-echelon kernels, affine dimension, and integer Fourier-Motzkin
towers. A tower depends only on the coefficient rows of a system;
feasibility with witnesses, recession detection and lattice-point
enumeration read it for any right-hand side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterable, Optional, Sequence, Union

IntVector = tuple[int, ...]
IntMatrix = tuple[IntVector, ...]
RatVector = tuple[Fraction, ...]

Rational = Union[int, Fraction]

GE = ">="
GT = ">"
EQ = "=="
RELATIONS = (GE, GT, EQ)

DEFAULT_CAP = 10**6


class ExactLinError(Exception):
    pass


class SingularMatrixError(ExactLinError):
    pass


# ---------------------------------------------------------------------------
# matrix and vector helpers


def int_matrix(rows: Iterable[Sequence[int]]) -> IntMatrix:
    """Build a rectangular integer matrix, checking row lengths agree."""
    out = tuple(tuple(int(x) for x in row) for row in rows)
    if out and any(len(r) != len(out[0]) for r in out[1:]):
        raise ValueError("matrix rows must have equal length")
    return out


def rat_vector(xs: Iterable[Rational]) -> RatVector:
    return tuple(Fraction(x) for x in xs)


def mat_mul_int(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    cols = len(b[0]) if b else 0
    return tuple(
        tuple(sum(ra[k] * b[k][j] for k in range(len(b))) for j in range(cols))
        for ra in a
    )


# ---------------------------------------------------------------------------
# Smith normal form


def _swap_rows(m, t, i):
    m[t], m[i] = m[i], m[t]


def _add_row(m, dst, src, k):
    row_s = m[src]
    row_d = m[dst]
    for j in range(len(row_d)):
        row_d[j] += k * row_s[j]


def _swap_cols(m, t, j):
    for row in m:
        row[t], row[j] = row[j], row[t]


def _add_col(m, dst, src, k):
    for row in m:
        row[dst] += k * row[src]


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form with transforms: returns (S, U, V) with U*a*V = S.

    S is diagonal with non-negative entries d_1 | d_2 | ... and U, V are
    unimodular (every operation used is a swap, a negation or an integer
    shear, so det U, det V are +-1). The identity U*a*V == S is re-checked
    on every call before returning.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    s = [list(row) for row in a]
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    t = 0
    while t < min(nrows, ncols):
        piv = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                e = s[i][j]
                if e != 0 and (piv is None or abs(e) < abs(s[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != t:
            _swap_rows(s, t, piv[0])
            _swap_rows(u, t, piv[0])
        if piv[1] != t:
            _swap_cols(s, t, piv[1])
            _swap_cols(v, t, piv[1])
        while True:
            dirty = False
            for i in range(nrows):
                if i == t or s[i][t] == 0:
                    continue
                q = s[i][t] // s[t][t]
                _add_row(s, i, t, -q)
                _add_row(u, i, t, -q)
                if s[i][t] != 0:
                    # remainder is smaller than the pivot; promote it
                    _swap_rows(s, t, i)
                    _swap_rows(u, t, i)
                    dirty = True
                    break
            if dirty:
                continue
            for j in range(ncols):
                if j == t or s[t][j] == 0:
                    continue
                q = s[t][j] // s[t][t]
                _add_col(s, j, t, -q)
                _add_col(v, j, t, -q)
                if s[t][j] != 0:
                    _swap_cols(s, t, j)
                    _swap_cols(v, t, j)
                    dirty = True
                    break
            if dirty:
                continue
            if any(s[i][t] != 0 for i in range(nrows) if i != t):
                continue
            bad = None
            for i in range(t + 1, nrows):
                for j in range(t + 1, ncols):
                    if s[i][j] % s[t][t] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            # pull the offending row up so the pivot can shrink to the gcd
            _add_row(s, t, bad, 1)
            _add_row(u, t, bad, 1)
        t += 1

    for i in range(min(nrows, ncols)):
        if s[i][i] < 0:
            for j in range(ncols):
                s[i][j] = -s[i][j]
            for j in range(nrows):
                u[i][j] = -u[i][j]

    s_t = tuple(tuple(row) for row in s)
    u_t = tuple(tuple(row) for row in u)
    v_t = tuple(tuple(row) for row in v)
    if mat_mul_int(mat_mul_int(u_t, a), v_t) != s_t:
        raise AssertionError("smith normal form transform identity failed")
    return s_t, u_t, v_t


# ---------------------------------------------------------------------------
# echelon forms


def rref(rows: Sequence[Sequence[Rational]], ncols: Optional[int] = None):
    """Reduced row echelon form over Q. Returns (rows, pivot columns)."""
    work = [list(map(Fraction, r)) for r in rows]
    if ncols is None:
        ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(work)):
            if work[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = Fraction(1) / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work, tuple(pivots)


def rat_rank(rows: Sequence[Sequence[Rational]]) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination.

    Rows are scaled to integers; after k pivots every entry is a k x k
    minor, so each division by the previous pivot is exact.
    """
    work = []
    for row in rows:
        scale = math.lcm(*(x.denominator for x in row))
        work.append([x.numerator * (scale // x.denominator) for x in row])
    rank, prev = 0, 1
    for c in range(len(work[0]) if work else 0):
        piv = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        top, p = work[rank], work[rank][c]
        for i in range(rank + 1, len(work)):
            a = work[i][c]
            work[i] = [(p * x - a * y) // prev for x, y in zip(work[i], top)]
        prev, rank = p, rank + 1
    return rank


def rational_kernel(a: Sequence[Sequence[Rational]], ncols: Optional[int] = None) -> tuple[RatVector, ...]:
    """Basis of {x : a.x = 0} over Q, from the reduced echelon form.

    Basis vectors are listed in ascending free-column order, each with a 1
    in its free coordinate, so the result is deterministic.
    """
    if ncols is None:
        if not a:
            raise ValueError("cannot infer column count of an empty matrix")
        ncols = len(a[0])
    work, pivots = rref(a, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -Fraction(work[r][f])
        basis.append(tuple(vec))
    return tuple(basis)


def int_adjugate(a: Sequence[Sequence[int]]) -> tuple[int, IntMatrix]:
    """(det a, adj a) of a square integer matrix; SingularMatrixError if det a = 0.

    Fraction-free (Bareiss) Gauss-Jordan elimination on [a | I]: every
    entry is a minor, so each division by the previous pivot is exact, and
    the last pivot d leaves [d I | d a^-1], with d = det a up to the sign
    of the row swaps. Column j of adj a is orthogonal to every row but j.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("int_adjugate needs a square matrix")
    work = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if work[i][k]), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        if piv != k:
            work[k], work[piv] = work[piv], work[k]
            sign = -sign
        top, p = work[k], work[k][k]
        for i in range(n):
            if i != k:
                c = work[i][k]
                work[i] = [(p * x - c * y) // prev for x, y in zip(work[i], top)]
        prev = p
    return sign * prev, tuple(tuple(sign * x for x in row[n:]) for row in work)


def affine_dim(points: Sequence[Sequence[Rational]]) -> int:
    """Dimension of the affine hull of a point set (-1 for the empty set)."""
    pts = [rat_vector(p) for p in points]
    if not pts:
        return -1
    base = pts[0]
    diffs = [tuple(x - y for x, y in zip(p, base)) for p in pts[1:]]
    if not diffs:
        return 0
    return rat_rank(diffs)


# ---------------------------------------------------------------------------
# linear systems


@dataclass(frozen=True)
class Row:
    """One constraint: coeffs . x REL rhs, with REL one of >=, >, ==."""

    coeffs: RatVector
    rel: str
    rhs: Fraction


@dataclass(frozen=True)
class LinearSystem:
    nvars: int
    rows: tuple[Row, ...]


def _normalize_row(coeffs: Sequence[Fraction], rel: str, rhs: Fraction) -> Row:
    # scale by a positive rational so entries are coprime integers
    dens = [c.denominator for c in coeffs] + [rhs.denominator]
    scale = Fraction(math.lcm(*dens)) if dens else Fraction(1)
    ints = [int(c * scale) for c in coeffs] + [int(rhs * scale)]
    g = math.gcd(*(abs(x) for x in ints)) if any(ints) else 0
    if g > 1:
        ints = [x // g for x in ints]
    return Row(tuple(Fraction(x) for x in ints[:-1]), rel, Fraction(ints[-1]))


def system(nvars: int, rows: Iterable[tuple[Sequence[Rational], str, Rational]]) -> LinearSystem:
    """Assemble a LinearSystem from (coeffs, relation, rhs) triples."""
    built = []
    for coeffs, rel, rhs in rows:
        if rel not in RELATIONS:
            raise ValueError(f"unknown relation {rel!r}")
        cv = rat_vector(coeffs)
        if len(cv) != nvars:
            raise ValueError("row length does not match variable count")
        built.append(_normalize_row(cv, rel, Fraction(rhs)))
    return LinearSystem(nvars, tuple(built))


def _system_tower(sys: LinearSystem) -> tuple["Tower", list[int], tuple[bool, ...]]:
    """The tower of the system as R x >= b, with b and the strict flags.

    Each row is scaled to integers; an equality enters as two opposite rows.
    """
    rows, b, strict = [], [], []
    for r in sys.rows:
        scale = math.lcm(r.rhs.denominator, *(c.denominator for c in r.coeffs))
        coeffs = tuple(int(c * scale) for c in r.coeffs)
        rhs = int(r.rhs * scale)
        for sign in (1, -1) if r.rel == EQ else (1,):
            rows.append(tuple(sign * c for c in coeffs))
            b.append(sign * rhs)
            strict.append(r.rel == GT)
    return build_tower(tuple(rows), sys.nvars), b, tuple(strict)


# ---------------------------------------------------------------------------
# Fourier-Motzkin towers
#
# A tower row (coeffs, mult) is the non-negative combination mult of the
# original rows, so it reads coeffs . x >= mult . b for every right-hand
# side b, strictly when mult uses a strict original row.

TowerRow = tuple[IntVector, IntVector]

TOWER_CACHE_SIZE = 1024


def _dot(x: Sequence[int], y: Sequence[int]) -> int:
    # stops at the shorter vector: a row of levels[k + 1] times x_0..x_{k-1}
    return sum(map(mul, x, y))


def _is_strict(mult: IntVector, strict: Sequence[bool]) -> bool:
    return any(s for m, s in zip(mult, strict) if m)


def _eliminate(rows: Sequence[TowerRow], var: int, max_support: int) -> list[TowerRow]:
    """Project out x_var: keep the rows free of it, combine (+, -) pairs.

    Each combination is divided by the joint gcd of its coefficients and
    multipliers. Duplicates are dropped, and so is a combination of more
    than max_support original rows (Chernikov's rule), which the others
    imply.
    """
    out: list[TowerRow] = []
    pos, neg = [], []
    for coeffs, mult in rows:
        c = coeffs[var]
        if c == 0:
            out.append((coeffs[:var] + coeffs[var + 1 :], mult))
        else:
            (pos if c > 0 else neg).append((coeffs, mult, abs(c)))
    for pc, pm, p in pos:
        for qc, qm, q in neg:
            mult = tuple(q * x + p * y for x, y in zip(pm, qm))
            if len(mult) - mult.count(0) > max_support:
                continue
            coeffs = tuple(q * x + p * y for x, y in zip(pc, qc))
            coeffs = coeffs[:var] + coeffs[var + 1 :]
            g = math.gcd(*coeffs, *mult)
            out.append((tuple(x // g for x in coeffs), tuple(x // g for x in mult)))
    return list(dict.fromkeys(out))


@dataclass(frozen=True)
class Tower:
    """Fourier-Motzkin projections of R x >= b, shared by every b.

    levels[k] holds the rows of the projection onto x_0..x_{k-1}: the
    variables are eliminated from the last down, so once x_0..x_{k-1} are
    fixed the rows of levels[k + 1] bound x_k, and levels[0] are the
    constant rows that decide feasibility. recession is None exactly when
    the polyhedron is bounded; otherwise it is a primitive recession ray
    z, and reduced is the tower of the rows that a unimodular change of
    variables with first column z leaves free of the first variable,
    together with the indices of those rows among the original ones.
    """

    nvars: int
    levels: tuple[tuple[TowerRow, ...], ...]
    recession: Optional[IntVector] = None
    reduced: Optional[tuple["Tower", tuple[int, ...]]] = None


@lru_cache(maxsize=TOWER_CACHE_SIZE)
def build_tower(rows: IntMatrix, nvars: int) -> Tower:
    """The tower of the integer rows R, eliminating x_{nvars-1}, ..., x_0."""
    n = len(rows)
    level = [(r, tuple(int(i == j) for j in range(n))) for i, r in enumerate(rows)]
    levels = [tuple(level)]
    for k in range(nvars - 1, -1, -1):
        level = _eliminate(level, k, nvars - k + 1)
        levels.append(tuple(level))
    levels.reverse()
    tower = Tower(nvars, tuple(levels))
    # the recession cone is {0} exactly when every level bounds its
    # variable from both sides
    for k in range(nvars):
        signs = {coeffs[k] > 0 for coeffs, _ in levels[k + 1] if coeffs[k]}
        if len(signs) < 2:
            prefix = (0,) * k + (1 if signs != {False} else -1,)
            ray = _lift(tower, (0,) * n, (), prefix)
            scale = math.lcm(*(f.denominator for f in ray))
            ints = [int(f * scale) for f in ray]
            g = math.gcd(*ints)
            z = tuple(x // g for x in ints)
            w = _unimodular_with_first_column(z)
            moved = [tuple(_dot(r, col) for col in zip(*w)) for r in rows]
            keep = tuple(i for i, r in enumerate(moved) if r[0] == 0)
            sub = build_tower(tuple(moved[i][1:] for i in keep), nvars - 1)
            return Tower(nvars, tuple(levels), z, (sub, keep))
    return tower


def tower_feasible(tower: Tower, b: Sequence[int], strict: Sequence[bool] = ()) -> bool:
    """Whether R x >= b has a rational solution; rows flagged in strict are >."""
    for _, mult in tower.levels[0]:
        s = _dot(mult, b)
        if s > 0 or (s == 0 and _is_strict(mult, strict)):
            return False
    return True


def _lift(tower: Tower, b: Sequence[int], strict: Sequence[bool], prefix: Sequence[Rational]) -> RatVector:
    """Extend a point of the projection onto the first len(prefix) variables.

    Each further coordinate takes the midpoint of its fiber, or steps one
    past its only bound, or 0 when the fiber is the whole line.
    """
    x = [Fraction(v) for v in prefix]
    for k in range(len(x), tower.nvars):
        lo = hi = None
        lo_strict = hi_strict = False
        for coeffs, mult in tower.levels[k + 1]:
            c = coeffs[k]
            if c == 0:
                continue
            bound = (_dot(mult, b) - _dot(coeffs, x)) / Fraction(c)
            st = _is_strict(mult, strict)
            if c > 0:
                if lo is None or bound > lo or (bound == lo and st):
                    lo, lo_strict = bound, st
            elif hi is None or bound < hi or (bound == hi and st):
                hi, hi_strict = bound, st
        if lo is None and hi is None:
            val = Fraction(0)
        elif lo is None:
            val = hi - 1
        elif hi is None:
            val = lo + 1
        elif lo < hi or (lo == hi and not (lo_strict or hi_strict)):
            val = (lo + hi) / 2
        else:
            raise AssertionError("projection exactness violated")
        x.append(val)
    return tuple(x)


class PointsStatus(Enum):
    POINTS = "points"
    INFEASIBLE = "infeasible"
    CAP_EXCEEDED = "cap_exceeded"
    UNBOUNDED_WITH_LATTICE_POINT = "unbounded_with_lattice_point"


@dataclass(frozen=True)
class IntegerPoints:
    status: PointsStatus
    points: tuple[IntVector, ...] = ()
    recession: Optional[IntVector] = None


_INFEASIBLE = IntegerPoints(PointsStatus.INFEASIBLE)


class _CapHit(Exception):
    pass


class _Budget:
    __slots__ = ("left",)

    def __init__(self, cap: int):
        self.left = cap

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise _CapHit


def _enumerate(tower: Tower, b: Sequence[int], budget: _Budget, first_only: bool) -> list[IntVector]:
    # every level of a bounded tower has lower and upper rows; a prefix
    # inside the projection always has a non-empty rational fiber
    bounds = [
        [(coeffs, coeffs[k], _dot(mult, b)) for coeffs, mult in tower.levels[k + 1] if coeffs[k]]
        for k in range(tower.nvars)
    ]
    found: list[IntVector] = []

    def walk(prefix: IntVector) -> None:
        k = len(prefix)
        if k == tower.nvars:
            found.append(prefix)
            return
        lo = hi = None
        for coeffs, c, r in bounds[k]:
            r -= sum(map(mul, coeffs, prefix))  # _dot, inlined: the hottest loop
            if c > 0:
                t = -(-r // c)
                if lo is None or t > lo:
                    lo = t
            else:
                t = r // c
                if hi is None or t < hi:
                    hi = t
        for t in range(lo, hi + 1):
            budget.spend()
            walk(prefix + (t,))
            if first_only and found:
                return

    walk(())
    return found


def _points(tower: Tower, b: Sequence[int], budget: _Budget, first_only: bool) -> IntegerPoints:
    if not tower_feasible(tower, b):
        return _INFEASIBLE
    if tower.reduced is not None:
        # the first new variable has no upper bound on any non-empty fiber,
        # so integer solvability reduces to the rows free of it
        sub, keep = tower.reduced
        if _points(sub, [b[i] for i in keep], budget, True).status is PointsStatus.INFEASIBLE:
            return _INFEASIBLE
        return IntegerPoints(PointsStatus.UNBOUNDED_WITH_LATTICE_POINT, (), tower.recession)
    found = _enumerate(tower, b, budget, first_only)
    return IntegerPoints(PointsStatus.POINTS, tuple(found)) if found else _INFEASIBLE


def tower_points(tower: Tower, b: Sequence[int], cap: int = DEFAULT_CAP, first_only: bool = False) -> IntegerPoints:
    """Integer solutions of R x >= b in lexicographic order.

    The cap is spent once per candidate value of each coordinate, and a
    full enumeration with a non-positive cap is refused outright. With
    first_only the search stops at the first solution. Statuses are those
    of integer_points.
    """
    if cap <= 0 and not first_only:
        return IntegerPoints(PointsStatus.CAP_EXCEEDED)
    try:
        return _points(tower, b, _Budget(cap), first_only)
    except _CapHit:
        return IntegerPoints(PointsStatus.CAP_EXCEEDED)


def _unimodular_with_first_column(z: IntVector) -> IntMatrix:
    """A unimodular matrix whose first column is the primitive vector z."""
    col = tuple((zi,) for zi in z)
    s, u, v = smith_normal_form(col)
    if s[0][0] != 1:
        raise ValueError("direction vector must be primitive")
    # u * z * v = e1 with v = (+-1), so z = v * u^{-1} e1; u is unimodular,
    # so det u = +-1 and u^{-1} = det u * adj u
    det, adj = int_adjugate(u)
    w = tuple(tuple(det * x * (v[0][0] if j == 0 else 1) for j, x in enumerate(row)) for row in adj)
    if tuple(row[0] for row in w) != z:
        raise AssertionError("unimodular completion does not start with z")
    return w


# ---------------------------------------------------------------------------
# linear systems through their towers


def fm_eliminate(sys: LinearSystem, var: int) -> LinearSystem:
    """Project out one variable by Fourier-Motzkin elimination.

    All (lower bound, upper bound) pairs are combined, an equality as two
    opposite inequalities, and a combination is strict whenever either
    parent is strict.
    """
    if not 0 <= var < sys.nvars:
        raise ValueError("variable index out of range")
    tower, b, strict = _system_tower(sys)
    return system(
        sys.nvars - 1,
        [
            (coeffs, GT if _is_strict(mult, strict) else GE, _dot(mult, b))
            for coeffs, mult in _eliminate(tower.levels[-1], var, 2)
        ],
    )


def feasible(sys: LinearSystem) -> tuple[bool, Optional[RatVector]]:
    """Exact rational feasibility with a witness.

    Decides on the constant rows of the system's tower, then rebuilds a
    witness coordinate by coordinate from x_0 up.
    """
    tower, b, strict = _system_tower(sys)
    if not tower_feasible(tower, b, strict):
        return False, None
    return True, _lift(tower, b, strict, ())


def integer_points(sys: LinearSystem, cap: int = DEFAULT_CAP) -> IntegerPoints:
    """All integer solutions of a non-strict system, in lexicographic order.

    Result statuses:
      POINTS                        non-empty finite solution list
      INFEASIBLE                    no integer solution exists
      CAP_EXCEEDED                  more than `cap` candidates were visited
      UNBOUNDED_WITH_LATTICE_POINT  a lattice point plus a nonzero integer
                                    recession direction (infinitely many)
    """
    if any(r.rel == GT for r in sys.rows):
        raise ValueError("integer_points requires a non-strict system")
    tower, b, _ = _system_tower(sys)
    return tower_points(tower, b, cap)


def has_integer_point(sys: LinearSystem, cap: int = DEFAULT_CAP) -> Optional[bool]:
    """Existence-only variant of integer_points; None when the cap is hit."""
    if any(r.rel == GT for r in sys.rows):
        raise ValueError("has_integer_point requires a non-strict system")
    tower, b, _ = _system_tower(sys)
    res = tower_points(tower, b, cap, first_only=True)
    if res.status is PointsStatus.CAP_EXCEEDED:
        return None
    return res.status is not PointsStatus.INFEASIBLE
