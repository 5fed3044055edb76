"""Support complexes and exact reduced homology over the rationals.

For a coefficient vector r on the rays, the support complex has a face
for every ray subset that lies in a common cone and has all r-values
non-negative. The index family Delta collects the subsets I whose
complex C_I (r = 0 on I, r = -1 off I) has nontrivial reduced homology;
it stratifies every cohomology computation in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .exactlin import Rational, rat_rank
from .fan import FAN_CACHE_SIZE, StackyFan, two_cone_pairs

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


def reduced_betti(cx: SimplicialComplex, m: int) -> BettiVector:
    """Reduced Betti numbers over Q in degrees -1..m-1, as an (m+1)-tuple.

    Computed from exact ranks of the augmented boundary maps; entry k of
    the result is the rank in degree k-1.
    """
    by_dim: dict[int, list[frozenset[int]]] = {}
    for f in cx.faces:
        by_dim.setdefault(len(f) - 1, []).append(f)
    top = max(by_dim)
    if top > m - 1:
        raise ValueError("complex dimension exceeds the requested range")
    for d in by_dim:
        by_dim[d] = sorted(by_dim[d], key=lambda f: tuple(sorted(f)))

    def boundary_rank(d: int) -> int:
        # rank of the map from d-chains to (d-1)-chains
        if d not in by_dim or (d - 1) not in by_dim:
            return 0
        lower = {f: idx for idx, f in enumerate(by_dim[d - 1])}
        rows = []
        for f in by_dim[d]:
            verts = sorted(f)
            row = [0] * len(lower)
            for k, v in enumerate(verts):
                sub = frozenset(f - {v})
                row[lower[sub]] = (-1) ** k
            rows.append(row)
        return rat_rank(rows)

    betti = []
    for deg in range(-1, m):
        n_d = len(by_dim.get(deg, []))
        betti.append(n_d - boundary_rank(deg) - boundary_rank(deg + 1))
    return tuple(betti)


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


@lru_cache(maxsize=FAN_CACHE_SIZE)
def delta_set(fan: StackyFan, cap: int = DEFAULT_DELTA_CAP) -> DeltaFamily:
    """Exhaustive Delta computation over all 2^n ray subsets."""
    n = fan.nrays
    if n > cap:
        raise DeltaCapError(
            f"fan has {n} rays, above the exhaustive enumeration cap {cap}"
        )
    pairs = []
    universe = list(range(1, n + 1))
    for size in range(n + 1):
        for I in combinations(universe, size):
            b = reduced_betti(complex_CI(fan, I), fan.rank)
            if any(b):
                pairs.append((frozenset(I), b))
    return _sorted_members(pairs)


def _components(fan: StackyFan, I: frozenset[int]) -> int:
    parent = {i: i for i in I}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for pair in two_cone_pairs(fan):
        a, b = sorted(pair)
        if a in I and b in I:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    return len({find(i) for i in I})


@lru_cache(maxsize=FAN_CACHE_SIZE)
def delta_fast_lowdim(fan: StackyFan) -> DeltaFamily:
    """Delta for rank 2 and 3 via connectivity only.

    In these ranks a proper nonempty subset contributes exactly when C_I
    or the complementary complex is disconnected, which a union-find over
    the two-dimensional cones decides without any homology computation;
    Betti vectors are then computed for members only.
    """
    m = fan.rank
    if m not in (2, 3):
        raise ValueError("fast path applies to rank 2 and 3 only")
    n = fan.nrays
    universe = frozenset(range(1, n + 1))
    chosen: set[frozenset[int]] = {frozenset(), universe}
    proper = [
        frozenset(c)
        for size in range(1, n)
        for c in combinations(sorted(universe), size)
    ]
    for I in proper:
        if _components(fan, I) > 1:
            chosen.add(I)
            if m == 3:
                chosen.add(universe - I)
    pairs = [(I, reduced_betti(complex_CI(fan, I), m)) for I in chosen]
    return _sorted_members(pairs)


def delta_family(fan: StackyFan, cap: int = DEFAULT_DELTA_CAP) -> DeltaFamily:
    """Delta via the cheapest supported route for the fan's rank."""
    if fan.rank in (2, 3):
        return delta_fast_lowdim(fan)
    return delta_set(fan, cap)
