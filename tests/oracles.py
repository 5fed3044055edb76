"""Independent reference computations used to cross-check the library.

Seven routes that never touch the production paths they check:

* closed-form dimensions for projective spaces and their products;
* a direct sum over integer functionals in a box, pairing each functional
  with the homology of its support complex (supp, reduced_betti);
* the index family Delta over all 2^n ray subsets, each complex C_I's
  Betti vector from the dense fraction-free ranks of the boundary maps
  of all its faces, against the sparse rat_rank of the package; and the
  minimal non-faces of the cone complex from every ray subset, against
  the sets the package enumerates from rank 4 on;
* unpruned Fourier-Motzkin over Fractions on LinearSystem values:
  feasibility from the constant rows of a full projection, boundedness
  from recession probes, and lattice points by projecting again at every
  prefix; system_tower hands the same systems to the integer towers,
  tower_feasible eliminates x_0 from a tower's first level and reads weak
  and strict feasibility off the constant rows, against the circuit masks
  of the Delta table, and tower_bounded reads boundedness off the levels,
  against recession probes and Stiemke's lemma;
* the sign systems of (a, I) built directly from the rays (signed_rays,
  sign_rhs), one tower per index set, against the per-fan Delta table;
  and the integer elimination step that combines every (+, -) pair
  before Chernikov's rule looks at it, against the support-mask check;
* linear equivalence of two classes by solving for the functional w on
  the rays of one maximal cone and checking it on every ray;
* inverses, solutions, kernels, facet normals and affine dimensions over
  Fractions by reduced echelon form, against the integer adjugates,
  Cramer solves and fraction-free kernels of the package; the fan axioms
  checked on every ray pair and on the inverse of every maximal cone
  (validate_oracle), against the one determinant solve per cone of
  fan.validate; the Bareiss loop that combines every row at every
  pivot, against the one that leaves idle rows alone; and the circuits
  of the rays from every small ray subset, against the kernel solves of
  the Delta table, with the class-space form of each circuit that
  conforms to an index set (conforming_forms), against the circuit masks
  of the Delta table.

Three helpers that only tests call also live here: lambda_polytope, the
per-cone linear parts of a PL function with the rank of their integer
differences, which the tests hold against affine_dim; cone_linear_part,
the form of a PL function on one maximal cone, which they hold against
solve_square; and classes_equal, equality of canonical coordinates,
which they hold against lattice_equivalent.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import ceil, comb, floor, gcd, lcm

from stackycoh.exactlin import SingularMatrixError, _eliminate, build_tower, rat_rank
from stackycoh.fan import FanValidationError, cone_adjugates
from stackycoh.picard import class_of
from stackycoh.plsearch import _form_differences, _linear_parts

GE = ">="
GT = ">"
EQ = "=="
RELATIONS = (GE, GT, EQ)


def h_p1(d):
    """(h^0, h^1) of degree d on the projective line."""
    return (d + 1 if d >= 0 else 0, -d - 1 if d <= -2 else 0)


def h_p2(d):
    """(h^0, h^1, h^2) of degree d on the projective plane."""
    return (
        comb(d + 2, 2) if d >= 0 else 0,
        0,
        comb(-d - 1, 2) if d <= -3 else 0,
    )


def h_product(ha, hb):
    """Cohomology of an external tensor product from factor dimensions."""
    out = [0] * (len(ha) + len(hb) - 1)
    for p, x in enumerate(ha):
        for q, y in enumerate(hb):
            out[p + q] += x * y
    return tuple(out)


@dataclass(frozen=True)
class SimplicialComplex:
    """An abstract simplicial complex, faces stored as frozensets.

    The empty face is always present; a complex with no vertices is the
    one-point chain complex whose reduced homology sits in degree -1.
    """

    faces: frozenset

    @property
    def vertices(self):
        return frozenset(v for f in self.faces if len(f) == 1 for v in f)

    def dim(self):
        return max(len(f) for f in self.faces) - 1


def _close_downward(faces):
    out = {frozenset()}
    for f in faces:
        f = frozenset(f)
        out.add(f)
        for k in range(1, len(f)):
            for sub in combinations(sorted(f), k):
                out.add(frozenset(sub))
    return frozenset(out)


def simplicial_complex(faces):
    return SimplicialComplex(_close_downward(frozenset(f) for f in faces))


def supp(fan, r):
    """Support complex of a coefficient vector on the rays.

    Faces are the subsets J of a maximal cone with r_i >= 0 for all i in J
    (1-based ray indices, r indexed by position).
    """
    if len(r) != fan.nrays:
        raise ValueError("coefficient vector length must equal the ray count")
    nonneg = {i for i in range(1, fan.nrays + 1) if r[i - 1] >= 0}
    return SimplicialComplex(_close_downward(cone & nonneg for cone in fan.max_cones))


def complex_CI(fan, index_set):
    """The complex C_I: r = 0 on I and r = -1 off I."""
    I = set(index_set)
    return supp(fan, [0 if i in I else -1 for i in range(1, fan.nrays + 1)])


def dense_rank(rows):
    """Rank over Q of dense integer rows by fraction-free (Bareiss) elimination.

    After k pivots every entry below them is a (k+1) x (k+1) minor, so each
    division by the previous pivot is exact.
    """
    work = [list(row) for row in rows]
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
        rank, prev = rank + 1, p
    return rank


def sparse_rows(rows):
    """Dense rows as the {column: nonzero entry} rows of exactlin.rat_rank."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def reduced_betti(cx, m):
    """Reduced Betti numbers over Q in degrees -1..m-1, as an (m+1)-tuple.

    Entry k is the rank in degree k-1, from the ranks of the augmented
    boundary maps, each face's vertices in ascending order.
    """
    levels = [[] for _ in range(m + 1)]  # faces by size
    for f in cx.faces:
        if len(f) > m:
            raise ValueError("complex dimension exceeds the requested range")
        levels[len(f)].append(tuple(sorted(f)))
    ranks = [0]
    for k in range(1, m + 1):
        index = {f: j for j, f in enumerate(levels[k - 1])}
        rows = []
        for f in levels[k]:
            row = [0] * len(index)
            for j in range(k):
                row[index[f[:j] + f[j + 1 :]]] = (-1) ** j
            rows.append(row)
        ranks.append(dense_rank(rows))
    ranks.append(0)
    return tuple(len(levels[k]) - ranks[k] - ranks[k + 1] for k in range(m + 1))


def brute_cohomology(fan, a, radius):
    """Direct dimension count: one support complex per functional in a box.

    Sums reduced Betti contributions over all integer functionals with
    sup-norm at most radius, and insists that the boundary shell is
    homologically silent, so the box was large enough empirically.
    """
    m = fan.rank
    h = [0] * (m + 1)
    for f in product(range(-radius, radius + 1), repeat=m):
        r = [
            a[i] + sum(f[j] * fan.rays[i][j] for j in range(m))
            for i in range(fan.nrays)
        ]
        betti = reduced_betti(supp(fan, r), m)
        if not any(betti):
            continue
        if max(abs(x) for x in f) == radius:
            raise AssertionError(
                f"contribution on the shell at radius {radius}: f={f}"
            )
        for j in range(m + 1):
            h[j] += betti[m - j]
    return tuple(h)


@lru_cache(maxsize=None)
def exhaustive_delta(fan):
    """Delta by boundary ranks of C_I for every ray subset I.

    Members come in the production order: by size, then lexicographically.
    Cached, since several tests hold the same fans against it.
    """
    pairs = []
    for size in range(fan.nrays + 1):
        for I in combinations(range(1, fan.nrays + 1), size):
            b = reduced_betti(complex_CI(fan, I), fan.rank)
            if any(b):
                pairs.append((frozenset(I), b))
    return tuple(pairs)


def minimal_non_faces(fan):
    """The ray subsets in no cone whose subsets one ray smaller all lie in one.

    Every subset of every size is tried; no bound on their size is assumed.
    """
    faces = {frozenset(s) for c in fan.max_cones for k in range(len(c) + 1)
             for s in combinations(sorted(c), k)}
    return {
        S for k in range(1, fan.nrays + 1)
        for S in map(frozenset, combinations(range(1, fan.nrays + 1), k))
        if S not in faces and all(S - {v} in faces for v in S)
    }


def is_union_of(I, sets):
    """Whether I is the union of the given sets that lie inside it."""
    return frozenset().union(*(g for g in sets if g <= I)) == I


@dataclass(frozen=True)
class Row:
    """One constraint: coeffs . x REL rhs, with REL one of >=, >, ==."""

    coeffs: tuple
    rel: str
    rhs: Fraction


@dataclass(frozen=True)
class LinearSystem:
    nvars: int
    rows: tuple


def _normalize_row(coeffs, rel, rhs):
    # scale by a positive rational so entries are coprime integers
    scale = lcm(rhs.denominator, *(c.denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs] + [int(rhs * scale)]
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    return Row(tuple(map(Fraction, ints[:-1])), rel, Fraction(ints[-1]))


def system(nvars, rows):
    """Assemble a LinearSystem from (coeffs, relation, rhs) triples."""
    built = []
    for coeffs, rel, rhs in rows:
        if rel not in RELATIONS:
            raise ValueError(f"unknown relation {rel!r}")
        if len(coeffs) != nvars:
            raise ValueError("row length does not match variable count")
        built.append(_normalize_row(tuple(map(Fraction, coeffs)), rel, Fraction(rhs)))
    return LinearSystem(nvars, tuple(built))


def system_tower(sys):
    """The system as an integer tower of R x >= b, with b and the strict flags.

    Rows are integers after normalization; an equality enters as two
    opposite rows.
    """
    rows, b, strict = [], [], []
    for r in sys.rows:
        for sign in (1, -1) if r.rel == EQ else (1,):
            rows.append(tuple(sign * int(c) for c in r.coeffs))
            b.append(sign * int(r.rhs))
            strict.append(r.rel == GT)
    return build_tower(tuple(rows), sys.nvars), b, tuple(strict)


def tower_feasible(tower, b, strict=()):
    """Whether R x >= b has a rational solution; rows flagged in strict are >.

    The tower stops before x_0, so one more elimination of x_0 on its first
    level gives the constant rows: each is a non-negative combination mult
    of the original rows, so 0 >= mult . b must hold, strictly when mult
    uses a strict row.
    """
    for _, mult in _eliminate(tower[0], 0, len(tower) + 1):
        s = sum(m * x for m, x in zip(mult, b))
        if s > 0 or (s == 0 and any(m and st for m, st in zip(mult, strict))):
            return False
    return True


def tower_bounded(tower):
    """Whether every level has rows of both signs on its variable: {x : R x >= 0} = {0}."""
    return all(len({c[k] > 0 for c, _ in level if c[k]}) == 2 for k, level in enumerate(tower))


def sign_system(fan, a, index_set, strict=False):
    """The sign system of (a, I) written from the rays.

    Weak: a_i + f(v_i) >= 0 on I and <= -1 off I. Strict: a_i + f(v_i) > 0
    on I and < 0 off I.
    """
    rel = GT if strict else GE
    rows = []
    for i, (ai, v) in enumerate(zip(a, fan.rays), 1):
        if i in index_set:
            rows.append((v, rel, -ai))
        else:
            rows.append((tuple(-x for x in v), rel, ai + (0 if strict else 1)))
    return system(fan.rank, rows)


def signed_rays(fan, index_set):
    """The rows of both sign systems of I: v_i on I, -v_i off I."""
    return tuple(
        v if i in index_set else tuple(-x for x in v) for i, v in enumerate(fan.rays, 1)
    )


def sign_rhs(a, index_set, strict=False):
    """b(a) of R x >= b over signed_rays: -a_i on I, a_i + 1 (weak) or a_i (strict) off I."""
    return [-ai if i in index_set else ai + (0 if strict else 1) for i, ai in enumerate(a, 1)]


def eliminate_unpruned_first(rows, var, max_support):
    """One integer elimination step that builds every (+, -) combination first.

    Chernikov's rule then drops a combination of more than max_support
    original rows; the rest is divided by its joint gcd and deduplicated.
    """
    out, pos, neg = [], [], []
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
            g = gcd(*coeffs, *mult)
            out.append((tuple(x // g for x in coeffs), tuple(x // g for x in mult)))
    return list(dict.fromkeys(out))


def fm_project(sys, var):
    """One Fourier-Motzkin step over Fractions, without any pruning.

    An equality mentioning the variable is substituted; otherwise every
    (lower, upper) pair is combined, strictly when either row is strict.
    Only rows that are equal after scaling are dropped.
    """

    def drop(coeffs):
        return coeffs[:var] + coeffs[var + 1 :]

    eq = next((r for r in sys.rows if r.rel == EQ and r.coeffs[var]), None)
    out = [(drop(r.coeffs), r.rel, r.rhs) for r in sys.rows if not r.coeffs[var]]
    if eq is not None:
        for r in sys.rows:
            if r is not eq and r.coeffs[var]:
                k = r.coeffs[var] / eq.coeffs[var]
                coeffs = tuple(x - k * y for x, y in zip(r.coeffs, eq.coeffs))
                out.append((drop(coeffs), r.rel, r.rhs - k * eq.rhs))
        return system(sys.nvars - 1, out)
    for p in (r for r in sys.rows if r.coeffs[var] > 0):
        for q in (r for r in sys.rows if r.coeffs[var] < 0):
            a, b = -q.coeffs[var], p.coeffs[var]
            coeffs = tuple(a * x + b * y for x, y in zip(p.coeffs, q.coeffs))
            rel = GT if GT in (p.rel, q.rel) else GE
            out.append((drop(coeffs), rel, a * p.rhs + b * q.rhs))
    proj = system(sys.nvars - 1, out)
    return LinearSystem(proj.nvars, tuple(dict.fromkeys(proj.rows)))


def constant_rows_hold(sys):
    """Whether 0 REL rhs holds on every row without variables."""
    for r in sys.rows:
        if any(r.coeffs):
            continue
        if (r.rel == GE and r.rhs > 0) or (r.rel == GT and r.rhs >= 0):
            return False
        if r.rel == EQ and r.rhs != 0:
            return False
    return True


def fm_feasible(sys):
    """Rational feasibility: project every variable, then read the constants."""
    while sys.nvars:
        sys = fm_project(sys, sys.nvars - 1)
    return constant_rows_hold(sys)


def fm_bounded(sys):
    """Whether the recession cone is {0}: no probe x_i >= 1 or -x_i >= 1 fits."""
    hom = [(r.coeffs, r.rel, 0) for r in sys.rows]
    for i in range(sys.nvars):
        for sign in (1, -1):
            probe = tuple(sign if j == i else 0 for j in range(sys.nvars))
            if fm_feasible(system(sys.nvars, hom + [(probe, GE, 1)])):
                return False
    return True


def fm_points(sys, first_only=False):
    """Lattice points of a bounded non-strict system, lexicographic order.

    Bounds the first variable by projecting out all the others, then
    recurses on each integer value. Returns the points and the number of
    candidate values visited; with first_only it stops at the first point.
    """
    found = []
    visited = 0

    def walk(sys, prefix):
        nonlocal visited
        if sys.nvars == 0:
            if constant_rows_hold(sys):
                found.append(prefix)
            return
        proj = sys
        for j in range(sys.nvars - 1, 0, -1):
            proj = fm_project(proj, j)
        if not constant_rows_hold(proj):
            return
        lows = [r.rhs / r.coeffs[0] for r in proj.rows if r.coeffs[0] > 0 or r.rel == EQ and r.coeffs[0]]
        highs = [r.rhs / r.coeffs[0] for r in proj.rows if r.coeffs[0] < 0 or r.rel == EQ and r.coeffs[0]]
        if not lows or not highs:
            raise AssertionError("lattice point enumeration of an unbounded system")
        for t in range(ceil(max(lows)), floor(min(highs)) + 1):
            visited += 1
            rest = [(r.coeffs[1:], r.rel, r.rhs - r.coeffs[0] * t) for r in sys.rows]
            walk(system(sys.nvars - 1, rest), prefix + (t,))
            if first_only and found:
                return

    walk(sys, ())
    return found, visited


def lattice_equivalent(fan, a, b):
    """Whether a - b = (w . v_i)_i for an integer vector w.

    The rays of a maximal cone are independent, so they fix w; it must
    then be integral and match a - b on every ray.
    """
    diff = [x - y for x, y in zip(a, b)]
    cone = sorted(min(fan.max_cones, key=sorted))
    w = solve_square(
        [[Fraction(x) for x in fan.ray(i)] for i in cone],
        [Fraction(diff[i - 1]) for i in cone],
    )
    if any(x.denominator != 1 for x in w):
        return False
    return all(
        sum(int(wj) * vj for wj, vj in zip(w, v)) == d
        for v, d in zip(fan.rays, diff)
    )


def classes_equal(fan, a, b):
    """Whether a and b have the same canonical coordinates (picard.class_of)."""
    ca, cb = class_of(fan, a), class_of(fan, b)
    return (ca.free, ca.torsion) == (cb.free, cb.torsion)


@dataclass(frozen=True)
class LambdaPolytope:
    """The per-cone linear parts of a function, with their affine span."""

    forms: tuple
    dim: int


def cone_linear_part(fan, psi, sigma):
    """The unique form agreeing with psi on the rays of one maximal cone."""
    det, adj = cone_adjugates(fan)[fan.max_cones.index(sigma)]
    b = [psi.values[i - 1] for i in sorted(sigma)]
    return tuple(Fraction(sum(x * y for x, y in zip(row, b)), det) for row in adj)


def lambda_polytope(fan, psi):
    # scale * psi has integer values and multiplies every A_sigma and every
    # difference row by scale > 0, which keeps the rank
    scale = lcm(*(v.denominator for v in psi.values))
    parts = _linear_parts(fan, [v.numerator * (scale // v.denominator) for v in psi.values])
    forms = tuple(tuple(Fraction(x, d * scale) for x in a) for d, a in parts)
    return LambdaPolytope(forms=forms, dim=rat_rank(_form_differences(parts)))


def rref(rows, ncols=None):
    """Reduced row echelon form over Q. Returns (rows, pivot columns)."""
    work = [list(map(Fraction, r)) for r in rows]
    if ncols is None:
        ncols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = 1 / work[r][c]
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


def rational_kernel(a, ncols):
    """Basis of {x : a.x = 0} over Q from the reduced echelon form.

    One vector per free column, in ascending order, with a 1 there.
    """
    work, pivots = rref(a, ncols)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -work[r][f]
        basis.append(tuple(vec))
    return tuple(basis)


@lru_cache(maxsize=None)
def brute_circuits(fan):
    """The circuits of the rays, each primitive with its first entry positive.

    A circuit is a relation sum lambda_i v_i = 0 of minimal support. Its
    support S is a minimal dependent set, so |S| <= m + 1: the rays of S
    have rank |S| - 1, and so do the rays of S minus any one ray. Every
    such S of at most m + 1 rays is tried, with the ranks and the one
    relation on S taken from the reduced echelon form.
    """
    out = set()
    for size in range(1, fan.rank + 2):
        for S in combinations(range(fan.nrays), size):
            rays = [fan.rays[i] for i in S]
            if len(rref(rays, fan.rank)[1]) != size - 1 or any(
                len(rref(rays[:k] + rays[k + 1 :], fan.rank)[1]) != size - 1 for k in range(size)
            ):
                continue
            (relation,) = rational_kernel(list(zip(*rays)), size)
            scale = lcm(*(x.denominator for x in relation))
            ints = [int(x * scale) for x in relation]
            g = gcd(*ints) * (1 if ints[0] > 0 else -1)
            full = [0] * fan.nrays
            for i, x in zip(S, ints):
                full[i] = x // g
            out.add(tuple(full))
    return frozenset(out)


def conforming_forms(fan, index_set):
    """(w, c) for each signed circuit sigma that conforms to I, by brute_circuits.

    sigma conforms when it is positive only on I and negative only off I.
    It is a constant row of the tower of I, so the weak system of a is
    rationally feasible only if w . a + c <= 0, with w = -sigma and c the
    sum of the absolute values of sigma's negative entries, and the open
    cone of I holds a only if w . a < 0; together the forms decide both.
    """
    out = []
    for circuit in sorted(brute_circuits(fan)):
        for sigma in (circuit, tuple(-x for x in circuit)):
            if all(x >= 0 if i in index_set else x <= 0 for i, x in enumerate(sigma, 1)):
                out.append((tuple(-x for x in sigma), -sum(x for x in sigma if x < 0)))
    return out


def affine_dim(points):
    """Dimension of the affine hull of a point set (-1 for the empty set)."""
    pts = [tuple(map(Fraction, p)) for p in points]
    if not pts:
        return -1
    return len(rref([[x - y for x, y in zip(p, pts[0])] for p in pts[1:]])[1])


def dot(x, y):
    if len(x) != len(y):
        raise ValueError("dot of vectors with different lengths")
    return sum((Fraction(a) * Fraction(b) for a, b in zip(x, y)), Fraction(0))


def solve_square(a, b):
    """Solve a.x = b exactly for square nonsingular a."""
    n = len(a)
    if any(len(row) != n for row in a) or len(b) != n:
        raise ValueError("solve_square needs a square system")
    aug = [list(map(Fraction, row)) + [Fraction(bi)] for row, bi in zip(a, b)]
    work, pivots = rref(aug, n)
    if len(pivots) != n:
        raise SingularMatrixError("matrix is singular")
    return tuple(work[i][n] for i in range(n))


def invert(a):
    """Exact inverse of a square nonsingular matrix over Q."""
    n = len(a)
    aug = [
        list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(a)
    ]
    work, pivots = rref(aug, n)
    if len(pivots) != n:
        raise SingularMatrixError("matrix is singular")
    return tuple(tuple(work[i][n:]) for i in range(n))


def facet_normal(fan, facet):
    """The one kernel vector of the rays of a facet, from the echelon form."""
    basis = rational_kernel([fan.ray(i) for i in sorted(facet)], ncols=fan.rank)
    if len(basis) != 1:
        raise AssertionError(f"facet {sorted(facet)} spans no hyperplane")
    return basis[0]


def validate_oracle(fan):
    """fan.validate over Fractions: its checks in its order, with its messages.

    Every pair of rays is compared, and each maximal cone is inverted
    (invert): column k of V^-1 is the normal of the facet opposite the
    k-th ray, with product 1 with that ray. The point p = sum of the rays
    of the first maximal cone is located in each other cone by solve_square.
    """
    m, n = fan.rank, fan.nrays
    if m < 1:
        raise FanValidationError("rank must be at least 1")
    if n == 0:
        raise FanValidationError("fan has no rays")
    for r in fan.rays:
        if len(r) != m:
            raise FanValidationError("ray length does not match rank")
        if not any(r):
            raise FanValidationError("zero ray")
    for i, j in combinations(range(n), 2):
        u, v = fan.rays[i], fan.rays[j]
        if u == v:
            raise FanValidationError(f"duplicate ray vector at positions {i + 1}, {j + 1}")
        parallel = all(u[a] * v[b] == u[b] * v[a] for a, b in combinations(range(m), 2))
        if parallel and dot(u, v) > 0:
            raise FanValidationError(f"rays {i + 1} and {j + 1} span the same 1-cone")
    if not fan.max_cones:
        raise FanValidationError("fan has no maximal cones")
    inverses = {}
    for cone in fan.max_cones:
        if len(cone) != m:
            raise FanValidationError("maximal cone size differs from rank")
        for i in cone:
            if not 1 <= i <= n:
                raise FanValidationError(f"cone ray index {i} out of range")
        try:
            inverses[cone] = invert([fan.ray(i) for i in sorted(cone)])
        except SingularMatrixError:
            raise FanValidationError(f"maximal cone {sorted(cone)} not simplicial") from None
    missing = sorted(set(range(1, n + 1)).difference(*fan.max_cones))
    if missing:
        raise FanValidationError(f"rays {missing} unused by maximal cones")
    if len(set(fan.max_cones)) != len(fan.max_cones):
        raise FanValidationError("duplicate maximal cone")
    facets = {}
    for cone in fan.max_cones:
        for i in cone:
            facets.setdefault(cone - {i}, []).append(i)
    for facet, opposite in facets.items():
        if len(opposite) == 1:
            raise FanValidationError(f"facet {sorted(facet)} unpaired")
        if len(opposite) > 2:
            raise FanValidationError(f"facet {sorted(facet)} shared by more than two cones")
        i, j = opposite
        k = sorted(facet | {i}).index(i)
        normal = [row[k] for row in inverses[facet | {i}]]
        if dot(normal, fan.ray(j)) >= 0:
            raise FanValidationError(f"facet {sorted(facet)} does not separate its two opposite rays")
    first = fan.max_cones[0]
    p = [sum(xs) for xs in zip(*(fan.ray(i) for i in first))]
    for cone in fan.max_cones[1:]:
        columns = [list(col) for col in zip(*(fan.ray(i) for i in sorted(cone)))]
        if all(x >= 0 for x in solve_square(columns, p)):
            raise FanValidationError(f"maximal cones {sorted(first)} and {sorted(cone)} overlap")


def gauss_jordan_unskipped(work, ncols):
    """exactlin._gauss_jordan combining every row but the pivot row at every pivot."""
    pivots = []
    sign = prev = 1
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            work[r], work[piv] = work[piv], work[r]
            sign = -sign
        top, p = work[r], work[r][c]
        for i in range(len(work)):
            if i != r:
                a = work[i][c]
                work[i] = [(p * x - a * y) // prev for x, y in zip(work[i], top)]
        pivots.append(c)
        prev = p
    return pivots, prev, sign
