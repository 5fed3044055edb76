"""Exact integer linear algebra.

Everything here takes and returns Python ints; no rational or floating
point number enters anywhere. The module provides the normal forms,
kernels and the Fourier-Motzkin machinery that the rest of the package is
built on: Smith normal form with unimodular transforms, a sparse
fraction-free rank, one fraction-free (Bareiss) Gauss-Jordan elimination
read by two routines, int_kernel and the square solve int_solve (an
adjugate is the solve against I, a Cramer solve the one against a
column, and int_det, except at 2 x 2 and 3 x 3, the one against
nothing), and integer Fourier-Motzkin towers. A tower is the tuple of
projections of the coefficient rows of a system R x >= b, shared by every
right-hand side b, and tower_points walks it for the lattice points of
R x >= b. The caller decides feasibility and boundedness; the walk
refuses a level it reaches that leaves its variable unbounded.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import mul, neg
from typing import Iterable, Mapping, Optional, Sequence

IntVector = tuple[int, ...]
IntMatrix = tuple[IntVector, ...]
DEFAULT_CAP = 10**6


class SingularMatrixError(Exception):
    pass


# ---------------------------------------------------------------------------
# matrix and vector helpers


def mat_mul_int(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


# ---------------------------------------------------------------------------
# Smith normal form


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
    shear, so det U, det V are +-1). All three live in one working matrix
    w: its first rows are [S | U] and its last rows are V, so every row
    operation on S carries U along and every column operation on S carries
    V along. The identity U*a*V == S is re-checked on every call before
    returning.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    w = [[*row, *(int(i == j) for j in range(nrows))] for i, row in enumerate(a)]
    w += [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    t = 0
    while t < min(nrows, ncols):
        piv = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                e = w[i][j]
                if e != 0 and (piv is None or abs(e) < abs(w[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        i, j = piv
        w[t], w[i] = w[i], w[t]
        if j != t:
            _swap_cols(w, t, j)
        while True:
            dirty = False
            for i in range(nrows):
                if i == t or w[i][t] == 0:
                    continue
                q = w[i][t] // w[t][t]
                _add_row(w, i, t, -q)
                if w[i][t] != 0:
                    # remainder is smaller than the pivot; promote it
                    w[t], w[i] = w[i], w[t]
                    dirty = True
                    break
            if dirty:
                continue
            # column t is now zero off the pivot, and no column operation
            # below changes it
            for j in range(ncols):
                if j == t or w[t][j] == 0:
                    continue
                q = w[t][j] // w[t][t]
                _add_col(w, j, t, -q)
                if w[t][j] != 0:
                    _swap_cols(w, t, j)
                    dirty = True
                    break
            if dirty:
                continue
            bad = None
            for i in range(t + 1, nrows):
                for j in range(t + 1, ncols):
                    if w[i][j] % w[t][t] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            # pull the offending row up so the pivot can shrink to the gcd
            _add_row(w, t, bad, 1)
        t += 1

    for i in range(min(nrows, ncols)):
        if w[i][i] < 0:
            w[i] = [-x for x in w[i]]

    s = tuple(tuple(row[:ncols]) for row in w[:nrows])
    u = tuple(tuple(row[ncols:]) for row in w[:nrows])
    v = tuple(tuple(row) for row in w[nrows:])
    if mat_mul_int(mat_mul_int(u, a), v) != s:
        raise AssertionError("smith normal form transform identity failed")
    return s, u, v


# ---------------------------------------------------------------------------
# fraction-free elimination


def _gauss_jordan(work: list[list[int]], ncols: int) -> tuple[list[int], int, int]:
    """Fraction-free (Bareiss) Gauss-Jordan elimination of work, in place.

    Pivots are sought among the first ncols columns, but every operation
    acts on whole rows, so the block b of [a | b] rides along.
    After k pivots every entry is a k x k minor, so each division by the
    previous pivot is exact, and the pivot rows end as d times the reduced
    echelon form, d the last pivot (1 without pivots). While the pivot p equals
    the previous one, a row with a zero in its column is left alone, as
    (p x - 0 y) / p = x. Returns the pivot columns, d and the row swap sign.
    """
    pivots: list[int] = []
    sign = prev = 1
    for c in range(ncols):
        r = len(pivots)
        for piv in range(r, len(work)):  # a loop, not next(): cheaper on small matrices
            if work[piv][c]:
                break
        else:
            continue
        if piv != r:
            work[r], work[piv] = work[piv], work[r]
            sign = -sign
        top, p = work[r], work[r][c]
        for i in range(len(work)):
            a = work[i][c]
            if i != r and (a or p != prev):
                work[i] = [(p * x - a * y) // prev for x, y in zip(work[i], top)]
        pivots.append(c)
        prev = p
    return pivots, prev, sign


_INT = frozenset({int})


def int_tuple(values: Iterable, what: str) -> IntVector:
    """The values as a tuple of ints; TypeError naming the first that is not one.

    int() would truncate a float or a Fraction silently. The message reads
    "{what} expected, got the entry ...". Entries of an int subclass such
    as bool are converted to int.
    """
    out = tuple(values)
    if _INT.issuperset(map(type, out)):
        return out
    for x in out:
        if not isinstance(x, int):
            raise TypeError(f"{what} expected, got the entry {x!r}")
    return tuple(map(int, out))


def _int_rows(rows: Iterable[Sequence[int]]) -> list[list[int]]:
    """The rows copied once as lists; TypeError on an entry that is not an int.

    The exact divisions of _gauss_jordan floor any other number silently.
    """
    return [r if _INT.issuperset(map(type, r)) else list(int_tuple(r, "integer matrix")) for r in map(list, rows)]


def rat_rank(rows: Iterable[Mapping[int, int]]) -> int:
    """Rank over Q of an integer matrix given as sparse rows {column: entry}.

    Each row is reduced at its lowest column until it is zero or becomes the
    pivot row there. A +-1 pivot is subtracted in place; any other gives the
    fraction-free combination, divided by its content. Zeros are dropped.
    """
    pivots: dict[int, dict[int, int]] = {}
    for given in rows:
        row = {}
        for j, x in given.items():
            if not isinstance(x, int):
                raise TypeError(f"integer matrix expected, got the entry {x!r}")
            if x:
                row[j] = x
        while row:
            c = min(row)
            top = pivots.get(c)
            if top is None:
                pivots[c] = row
                break
            p, a = top[c], row[c]
            if p == 1 or p == -1:
                a *= p
                for j, x in top.items():
                    y = row.get(j, 0) - a * x
                    if y:
                        row[j] = y
                    else:
                        del row[j]
            else:
                row = {j: p * row.get(j, 0) - a * top.get(j, 0) for j in row.keys() | top.keys()}
                g = math.gcd(*row.values())
                row = {j: y // g for j, y in row.items() if y}
    return len(pivots)


def int_kernel(rows: Sequence[Sequence[int]], ncols: int) -> tuple[IntVector, ...]:
    """Basis of {x : rows . x = 0} over Q, as primitive integer vectors.

    One vector per free column, in ascending order: the primitive positive
    multiple of the echelon kernel vector with a 1 at that column.
    """
    work = _int_rows(rows)
    pivots, d, _ = _gauss_jordan(work, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [0] * ncols
        vec[f] = d
        for row, c in zip(work, pivots):
            vec[c] = -row[f]
        g = math.gcd(*vec) if d > 0 else -math.gcd(*vec)
        basis.append(tuple(x // g for x in vec))
    return tuple(basis)


def int_solve(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> tuple[int, IntMatrix]:
    """(det a, det a * a^-1 b) for a square integer a and an n x k integer b, both by rows.

    Elimination of [a | b] leaves [d I | d a^-1 b], d = det a up to the sign
    of the row swaps. With b = I the second entry is adj a, whose column j
    is orthogonal to every row of a but row j; with b one column it is
    Cramer's rule. SingularMatrixError if det a = 0.
    """
    n = len(a)
    if len(b) != n or not {n}.issuperset(map(len, a)) or len(set(map(len, b))) > 1:
        raise ValueError("int_solve needs a square matrix and right-hand sides of one length")
    work = [[*row, *rhs] for row, rhs in zip(a, b)]
    if not _INT.issuperset(map(type, chain.from_iterable(work))):
        work = _int_rows(work)
    pivots, d, sign = _gauss_jordan(work, n)
    if len(pivots) < n:
        raise SingularMatrixError("matrix is singular")
    if sign < 0:
        return -d, tuple([tuple(map(neg, row[n:])) for row in work])
    return d, tuple([tuple(row[n:]) for row in work])


def int_det(a: Sequence[Sequence[int]]) -> int:
    """det a of a square integer matrix a by rows: int_solve's, in closed form at 2 x 2 and 3 x 3."""
    if len(a) in (2, 3) and _INT.issuperset(map(type, chain.from_iterable(a))):
        if len(a) == 2:
            (p, q), (s, t) = a
            return p * t - q * s
        (p, q, r), (s, t, u), (v, w, x) = a
        return p * (t * x - u * w) + q * (u * v - s * x) + r * (s * w - t * v)
    try:
        return int_solve(a, [()] * len(a))[0]
    except SingularMatrixError:
        return 0


# ---------------------------------------------------------------------------
# Fourier-Motzkin towers
#
# A tower row (coeffs, mult) is the non-negative combination mult of the
# original rows, so it reads coeffs . x >= mult . b for every right-hand
# side b.

TowerRow = tuple[IntVector, IntVector]
TowerLevel = tuple[TowerRow, ...]


def _dot(x: Sequence[int], y: Sequence[int]) -> int:
    # stops at the shorter vector: a row of level k times x_0..x_{k-1}
    return sum(map(mul, x, y))


def _eliminate(rows: Sequence[TowerRow], var: int, max_support: int) -> list[TowerRow]:
    """Project out x_var: keep the rows free of it, combine (+, -) pairs.

    Each combination is divided by the joint gcd of its coefficients and
    multipliers. Duplicates are dropped, and so is a combination of more
    than max_support original rows (Chernikov's rule), which the others
    imply. Multipliers are non-negative, so a pair is refused on the union
    of its two support bitmasks before it is combined.
    """
    out: list[TowerRow] = []
    pos, neg = [], []
    for coeffs, mult in rows:
        c = coeffs[var]
        if c == 0:
            out.append((coeffs[:var] + coeffs[var + 1 :], mult))
        else:
            support = sum(1 << j for j, x in enumerate(mult) if x)
            (pos if c > 0 else neg).append((coeffs, mult, abs(c), support))
    for pc, pm, p, ps in pos:
        for qc, qm, q, qs in neg:
            if (ps | qs).bit_count() > max_support:
                continue
            mult = tuple(q * x + p * y for x, y in zip(pm, qm))
            coeffs = tuple(q * x + p * y for x, y in zip(pc, qc))
            coeffs = coeffs[:var] + coeffs[var + 1 :]
            g = math.gcd(*coeffs, *mult)
            out.append((tuple(x // g for x in coeffs), tuple(x // g for x in mult)))
    return list(dict.fromkeys(out))


def build_tower(rows: IntMatrix, nvars: int) -> tuple[TowerLevel, ...]:
    """The levels of the integer rows R in nvars >= 1 variables, eliminating x_{nvars-1}, ..., x_1.

    Level k holds the rows of the projection onto x_0..x_k, so once
    x_0..x_{k-1} are fixed its rows with x_k bound x_k; the last level is R
    itself. x_0 is never eliminated: the constant rows that decide
    feasibility are left to the caller. A zero row bounds no variable, so
    no level reads it: ValueError.
    """
    if not all(map(any, rows)):
        raise ValueError("a zero row bounds no variable of a tower")
    n = len(rows)
    levels = [tuple((r, tuple(int(i == j) for j in range(n))) for i, r in enumerate(rows))]
    for k in range(nvars - 1, 0, -1):
        levels.append(tuple(_eliminate(levels[-1], k, nvars - k + 1)))
    return tuple(reversed(levels))


def unit_pivots(tower: Sequence[TowerLevel]) -> bool:
    """Whether every level k bounds x_k from below by +1 rows only or from above by -1 rows only."""
    return all(max(c[k] for c, _ in lv) <= 1 or min(c[k] for c, _ in lv) >= -1 for k, lv in enumerate(tower))


class _CapHit(Exception):
    pass


def tower_points(
    tower: Sequence[TowerLevel], b: Sequence[int], cap: int = DEFAULT_CAP, first_only: bool = False
) -> Optional[tuple[IntVector, ...]]:
    """Integer solutions of R x >= b in lexicographic order, () if there are none.

    The cap is spent once per candidate value of each coordinate, and the
    result is None once it runs out. With first_only the search stops at
    the first solution. A level that the walk reaches without rows of both
    signs on its variable leaves the system unbounded: ValueError, before
    any cap is spent on that level.

    The caller decides rational feasibility. Every point returned solves
    R x >= b, but on an infeasible system the walk may spend cap on
    prefixes whose fibers are empty.
    """
    bounds = [
        [(coeffs, coeffs[k], _dot(mult, b)) for coeffs, mult in level if coeffs[k]]
        for k, level in enumerate(tower)
    ]
    nvars = len(bounds)
    found: list[IntVector] = []
    left = cap

    def walk(prefix: IntVector) -> None:
        nonlocal left
        k = len(prefix)
        if k == nvars:
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
        if lo is None or hi is None:
            raise ValueError("the lattice points of an unbounded system are not enumerated")
        for t in range(lo, hi + 1):
            left -= 1
            if left < 0:
                raise _CapHit
            walk(prefix + (t,))
            if first_only and found:
                return

    try:
        walk(())
    except _CapHit:
        return None
    return tuple(found)
