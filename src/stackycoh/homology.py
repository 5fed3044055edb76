"""Support complexes and exact reduced homology over the rationals.

For a coefficient vector r on the rays, the support complex has a face
for every ray subset that lies in a common cone and has all r-values
non-negative. The index family Delta collects the subsets I whose
complex C_I (r = 0 on I, r = -1 off I) has nontrivial reduced homology;
it stratifies every cohomology computation in this package, and is read
off the topology of the fan's cone complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

from .exactlin import Rational, rat_rank
from .fan import FAN_CACHE_SIZE, StackyFan

DEFAULT_DELTA_CAP = 16

BettiVector = tuple[int, ...]


class DeltaCapError(Exception):
    pass


@dataclass(frozen=True)
class SimplicialComplex:
    """An abstract simplicial complex, faces stored as frozensets.

    The empty face is always present; a complex with no vertices is the
    one-point chain complex whose reduced homology sits in degree -1.
    """

    faces: frozenset[frozenset[int]]

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(v for f in self.faces if len(f) == 1 for v in f)

    def dim(self) -> int:
        return max(len(f) for f in self.faces) - 1


def _close_downward(faces: Iterable[frozenset[int]]) -> frozenset[frozenset[int]]:
    out: set[frozenset[int]] = {frozenset()}
    for f in faces:
        f = frozenset(f)
        out.add(f)
        for k in range(1, len(f)):
            for sub in combinations(sorted(f), k):
                out.add(frozenset(sub))
    return frozenset(out)


def simplicial_complex(faces: Iterable[Iterable[int]]) -> SimplicialComplex:
    return SimplicialComplex(_close_downward(frozenset(f) for f in faces))


def supp(fan: StackyFan, r: Sequence[Rational]) -> SimplicialComplex:
    """Support complex of a coefficient vector on the rays.

    Faces are the subsets J of a maximal cone with r_i >= 0 for all i in J
    (1-based ray indices, r indexed by position).
    """
    if len(r) != fan.nrays:
        raise ValueError("coefficient vector length must equal the ray count")
    nonneg = {i for i in range(1, fan.nrays + 1) if Fraction(r[i - 1]) >= 0}
    tops = {frozenset(cone & nonneg) for cone in fan.max_cones}
    return SimplicialComplex(_close_downward(tops))


def complex_CI(fan: StackyFan, index_set: Iterable[int]) -> SimplicialComplex:
    """The complex C_I: r = 0 on I and r = -1 off I."""
    I = set(index_set)
    r = [0 if i in I else -1 for i in range(1, fan.nrays + 1)]
    return supp(fan, r)


def _boundary_rank(faces: Sequence[int], lower: Sequence[int]) -> int:
    """Rank of the boundary map from faces to faces one smaller, as bitmasks."""
    index = {f: k for k, f in enumerate(lower)}
    rows = []
    for f in faces:
        row = [0] * len(lower)
        bits = [1 << v for v in range(f.bit_length()) if f >> v & 1]
        for k, bit in enumerate(bits):
            row[index[f ^ bit]] = (-1) ** k
        rows.append(row)
    return rat_rank(rows)


def reduced_betti(cx: SimplicialComplex, m: int) -> BettiVector:
    """Reduced Betti numbers over Q in degrees -1..m-1, as an (m+1)-tuple.

    Computed from exact ranks of the augmented boundary maps; entry k of
    the result is the rank in degree k-1.
    """
    levels: list[list[int]] = [[] for _ in range(m + 1)]  # faces by size
    for f in cx.faces:
        if len(f) > m:
            raise ValueError("complex dimension exceeds the requested range")
        levels[len(f)].append(sum(1 << v for v in f))
    ranks = [_boundary_rank(levels[k], levels[k - 1]) for k in range(1, m + 1)]
    ranks = [0, *ranks, 0]
    return tuple(len(levels[k]) - ranks[k] - ranks[k + 1] for k in range(m + 1))


@dataclass(frozen=True)
class DeltaFamily:
    """The index sets with homologically nontrivial C_I, plus their ranks."""

    members: tuple[tuple[frozenset[int], BettiVector], ...]

    def sets(self) -> tuple[frozenset[int], ...]:
        return tuple(I for I, _ in self.members)

    def betti(self, index_set: Iterable[int]) -> BettiVector:
        I = frozenset(index_set)
        for J, b in self.members:
            if J == I:
                return b
        raise KeyError(f"{sorted(I)} is not in the family")

    def __contains__(self, index_set) -> bool:
        I = frozenset(index_set)
        return any(J == I for J, _ in self.members)

    def __len__(self) -> int:
        return len(self.members)


def _sorted_members(pairs: Iterable[tuple[frozenset[int], BettiVector]]) -> DeltaFamily:
    ordered = sorted(pairs, key=lambda p: (len(p[0]), tuple(sorted(p[0]))))
    return DeltaFamily(tuple(ordered))


def _components(adj: Sequence[int], mask: int) -> int:
    """Connected components of the graph of two-cones on the rays in mask."""
    count = 0
    while mask:
        count += 1
        reach, grown = 0, mask & -mask
        while grown != reach:
            reach = grown
            for v, nb in enumerate(adj):
                if reach >> v & 1:
                    grown |= nb & mask
        mask &= ~reach
    return count


def _proper_betti(
    m: int, I: int, Ic: int, adj: Sequence[int], levels: Sequence[Sequence[int]]
) -> list[int]:
    """Reduced Betti vector of C_I, for I and its complement Ic nonempty.

    Degrees -1 and m-1 vanish. Degree 0 counts the components of I and,
    by duality, degree m-2 those of Ic. Degrees 1..m-4 come from boundary
    ranks and the reduced Euler characteristic fixes degree m-3.
    """
    b = [0] * (m + 1)  # b[k] is the rank in degree k-1
    if m >= 2:
        b[1], b[m - 1] = _components(adj, I) - 1, _components(adj, Ic) - 1
    if m >= 4:
        f = [[face for face in level if face | I == I] for level in levels]
        rank = len(f[0]) - 1 - b[1]  # of the boundary from edges to vertices
        for d in range(1, m - 3):
            # with no d-cycles the next boundary map is zero
            nxt = _boundary_rank(f[d + 1], f[d]) if len(f[d]) > rank else 0
            b[d + 1], rank = len(f[d]) - rank - nxt, nxt
        chi = sum((-1) ** d * len(faces) for d, faces in enumerate(f)) - 1
        known = sum((-1) ** d * x for d, x in enumerate(b[1:]))
        b[m - 2] = (-1) ** (m - 3) * (chi - known)
    return b


@lru_cache(maxsize=FAN_CACHE_SIZE)
def delta_set(fan: StackyFan) -> DeltaFamily:
    """Delta of a complete simplicial fan from the topology of its cones.

    The cone complex triangulates the sphere S^{m-1} and C_I is its full
    subcomplex on I, so Alexander duality gives H~_i(C_I) = H~_{m-2-i}(C_J)
    over Q, J the complement of I. Only the sets without the last ray are
    visited; each complement's Betti vector is the reverse. The faces are
    ray bitmasks, listed once per fan by dimension.
    """
    m, n = fan.rank, fan.nrays
    faces: set[int] = set()
    for cone in fan.max_cones:
        top = sub = sum(1 << (i - 1) for i in cone)
        while sub:
            faces.add(sub)
            sub = (sub - 1) & top
    levels = [[f for f in faces if f.bit_count() == d + 1] for d in range(m)]
    edges = levels[1] if m > 1 else []
    adj = [sum(e ^ 1 << v for e in edges if e >> v & 1) for v in range(n)]
    full, universe = (1 << n) - 1, frozenset(range(1, n + 1))
    sphere = (0,) * m + (1,)
    pairs = [(frozenset(), sphere[::-1]), (universe, sphere)]
    for I in range(1, 1 << (n - 1)):
        b = _proper_betti(m, I, full ^ I, adj, levels)
        if any(b):
            members = frozenset(i + 1 for i in range(n) if I >> i & 1)
            pairs += [(members, tuple(b)), (universe - members, tuple(b[::-1]))]
    return _sorted_members(pairs)


# One enumerator serves every rank; the benchmark harness still reads the
# cache statistics of this second name, so it stays as an alias.
delta_fast_lowdim = delta_set


def delta_family(fan: StackyFan, cap: int = DEFAULT_DELTA_CAP) -> DeltaFamily:
    """Delta of the fan, refused when it has more than cap rays.

    The enumeration visits 2^(n-1) index sets in every rank.
    """
    if fan.nrays > cap:
        raise DeltaCapError(
            f"fan has {fan.nrays} rays, above the enumeration cap {cap}"
        )
    return delta_set(fan)
