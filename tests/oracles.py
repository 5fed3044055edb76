"""Independent reference computations used to cross-check the library.

Four routes that never touch the production cohomology path:

* closed-form dimensions for projective spaces and their products;
* a direct sum over integer functionals in a box, pairing each functional
  with the homology of its support complex;
* the index family Delta over all 2^n ray subsets, each complex C_I's
  Betti vector from its boundary ranks;
* unpruned Fourier-Motzkin over Fractions: feasibility from the constant
  rows of a full projection, boundedness from recession probes, and
  lattice points by projecting again at every prefix.
"""

from itertools import combinations, product
from math import ceil, comb, floor

from stackycoh.exactlin import EQ, GE, GT, LinearSystem, system
from stackycoh.homology import DeltaFamily, complex_CI, reduced_betti, supp


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


def exhaustive_delta(fan):
    """Delta by boundary ranks of C_I for every ray subset I.

    Members come in the production order: by size, then lexicographically.
    """
    pairs = []
    for size in range(fan.nrays + 1):
        for I in combinations(range(1, fan.nrays + 1), size):
            b = reduced_betti(complex_CI(fan, I), fan.rank)
            if any(b):
                pairs.append((frozenset(I), b))
    return DeltaFamily(tuple(pairs))


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
