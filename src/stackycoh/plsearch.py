"""Piecewise-linear functions on a fan and infinite-family detection.

A function linear on every maximal cone is stored by its ray values. The
search looks for a non-linear such function vanishing at one ray on every
cone; when it exists, translating it sweeps out infinitely many classes
with no cohomology at all, and the report classifies the fan accordingly.
A family r*psi - e_s checks psi once for all its r.
"""

from __future__ import annotations

from operator import mul
from typing import Optional, Sequence

from .cohomline import Limits, first_outside_interiors, h_trivial_flags
from .exactlin import IntVector, int_kernel, int_tuple, rat_rank
from .fan import StackyFan, collinear_pairs, cone_adjugates, neighborhood
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


def _linear_parts(fan: StackyFan, values: Sequence[Rational]) -> list[tuple[int, list[Rational]]]:
    """(d_sigma, A_sigma) = (det V, adj V values|sigma) per maximal cone.

    In the order of fan.max_cones; the linear part on sigma is A_sigma / d_sigma.
    """
    parts = []
    for sigma, (det, adj) in zip(fan.max_cones, cone_adjugates(fan)):
        b = [values[i - 1] for i in sorted(sigma)]
        parts.append((det, [sum(map(mul, row, b)) for row in adj]))
    return parts


def _form_differences(parts: Sequence[tuple[int, list[Rational]]]) -> list[dict[int, Rational]]:
    """d_0 A_sigma - d_sigma A_0 for each maximal cone after the first.

    The rows are sparse, {column: nonzero entry}, so they are empty exactly
    when all linear parts agree. They span the affine hull of the parts.
    """
    (d0, a0), *rest = parts
    return [{j: v for j, (x, y) in enumerate(zip(a, a0)) if (v := d0 * x - d * y)} for d, a in rest]


def is_linear(fan: StackyFan, psi: PLFunction) -> bool:
    return not any(_form_differences(_linear_parts(fan, psi.values)))


def _forms_at_ray(fan: StackyFan, s: int) -> list[list[int]]:
    """det V times the form at v_s of each maximal cone, as a row, in fan.max_cones order.

    The form of a value vector c on sigma is adj V c|_sigma / det V, so
    entry i is v_s times the column of adj V at ray i.
    """
    rows = []
    for sigma, (_, adj) in zip(fan.max_cones, cone_adjugates(fan)):
        row = [0] * fan.nrays
        for i, col in zip(sorted(sigma), zip(*adj)):
            row[i - 1] = sum(map(mul, col, fan.rays[s - 1]))
        rows.append(row)
    return rows


def degenerate_space(fan: StackyFan, s: int) -> tuple[tuple[IntVector, ...], int]:
    """Basis and dimension of the value vectors whose linear parts kill v_s.

    Each maximal cone contributes one linear constraint on the value
    vector c: the cone's form, evaluated at v_s, must vanish. The basis
    vectors are primitive integer vectors (exactlin.int_kernel).
    """
    if not 1 <= s <= fan.nrays:
        raise ValueError(f"ray index {s} out of range")
    basis = int_kernel(_forms_at_ray(fan, s), fan.nrays)
    return basis, len(basis)


def find_degenerate_psi(fan: StackyFan) -> Optional[tuple[int, PLFunction]]:
    """The first ray carrying a non-linear vanishing function, if any.

    Rays are tried in ascending order; psi takes the coprime integer
    values of the first kernel basis vector outside the linear subspace.
    """
    m = fan.rank
    for s in range(1, fan.nrays + 1):
        basis, dim = degenerate_space(fan, s)
        if dim <= m - 1:
            continue
        for vec in basis:
            diffs = _form_differences(_linear_parts(fan, vec))
            if any(diffs):
                if rat_rank(diffs) >= m:
                    raise AssertionError("the linear parts of psi must span less than the rank")
                return s, pl_function(vec)
        raise AssertionError("kernel above the linear dimension must leave it")
    return None


def family_classes(
    fan: StackyFan, s: int, psi: PLFunction, r_range: tuple[int, int]
) -> list[LineBundleClass]:
    """The classes with coefficients r*psi(v_i) off the ray s and -1 at s, r = lo..hi.

    psi is checked once: integer values that vanish at v_s on every cone.
    """
    if not psi.is_integral:
        raise ValueError("family construction needs integer psi values")
    values = [int(v) for v in psi.values]
    if any(sum(map(mul, row, values)) for row in _forms_at_ray(fan, s)):
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
    if not 1 <= s <= fan.nrays:
        raise ValueError(f"ray index {s} out of range")
    m, n = fan.rank, fan.nrays
    vs = fan.rays[s - 1]
    fs = f_values.values[s - 1]
    if is_linear(fan, f_values):
        d0, a0 = _linear_parts(fan, f_values.values)[0]
        w0 = [Fraction(x, d0) for x in a0]
        return PLFunction(
            tuple(
                f_values.values[i] - sum(w0[j] * fan.rays[i][j] for j in range(m))
                for i in range(n)
            )
        )
    j0 = next(j for j in range(m) if vs[j] != 0)
    m0 = [Fraction(0)] * m
    m0[j0] = Fraction(fs, vs[j0])
    # the echelon kernel of v_s: a 1 at each free column, in ascending order
    free = [j for j in range(m) if j != j0]
    kernel = [tuple(Fraction(x, k[f]) for x in k) for f, k in zip(free, int_kernel([vs], m))]
    on_line = {s}.union(*(p for p in collinear_pairs(fan) if s in p))
    off_line = [i for i in range(1, n + 1) if i not in on_line]
    q = 0
    while True:
        q += 1
        mq = list(m0)
        for t, k in enumerate(kernel):
            c = Fraction(1, q ** (t + 1))
            mq = [mq[j] + c * k[j] for j in range(m)]
        vals = tuple(
            f_values.values[i - 1]
            - sum(mq[j] * fan.rays[i - 1][j] for j in range(m))
            for i in range(1, n + 1)
        )
        if all(vals[i - 1] != 0 for i in off_line):
            return PLFunction(vals)


def sign_changes(fan: StackyFan, g: PLFunction, s: int) -> int:
    """Sign alternations of g around the link cycle of the ray s.

    Signs partition values into non-negative and negative. Requires rank 3,
    a vanishing value at s, and nonzero values on the cycle.
    """
    if fan.rank != 3:
        raise ValueError("sign counting needs a rank 3 fan")
    nb = neighborhood(fan, s)
    if nb.cycle is None:
        raise ValueError(f"link of ray {s} is not a single cycle")
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
