"""Complete simplicial stacky fans: loading, validation, ray queries.

A fan is given by a free lattice rank, one chosen integer lattice point on
each ray, and the maximal cones as sets of ray indices. Ray indices are
1-based everywhere in this API; the JSON file format is 0-based.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence

from .exactlin import IntMatrix, IntVector, SingularMatrixError, int_solve, int_tuple

# bound of every fan-keyed cache, so a process that sees many fans stays small
FAN_CACHE_SIZE = 256


class FanError(Exception):
    pass


class FanFormatError(FanError):
    """Raised when fan JSON cannot be parsed into a well-typed fan."""


class FanValidationError(FanError):
    """Raised when a well-typed fan fails a completeness or fan axiom."""


@dataclass(frozen=True)
class StackyFan:
    rank: int
    rays: tuple[IntVector, ...]
    max_cones: tuple[frozenset[int], ...]

    @cached_property
    def _hash(self) -> int:
        # the dataclass hash, computed once: every fan-keyed cache asks for it
        return hash((self.rank, self.rays, self.max_cones))

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    @property
    def nrays(self) -> int:
        return len(self.rays)

    def ray(self, i: int) -> IntVector:
        """The lattice point on ray i (1-based)."""
        return self.rays[i - 1]


def make_fan(rank: int, rays: Iterable[Sequence[int]], max_cones: Iterable[Iterable[int]]) -> StackyFan:
    """Build and validate a stacky fan from 1-based cone index sets.

    TypeError on a rank, coordinate or index that is not an int, which
    int() would truncate.
    """
    (rank,) = int_tuple((rank,), "an integer rank")
    rays = tuple(int_tuple(r, "integer ray coordinates") for r in rays)
    cones = [list(int_tuple(cone, "integer ray indices")) for cone in max_cones]
    for c in cones:
        if len(set(c)) != len(c):
            raise FanValidationError(f"cone {c} lists a ray index twice")
    fan = StackyFan(rank, rays, tuple(map(frozenset, cones)))
    validate(fan)
    return fan


# ---------------------------------------------------------------------------
# file format


def _reject_float(value: str):
    raise FanFormatError(f"non-integer number {value!r} in fan file")


def load_fan(text: bytes | str) -> StackyFan:
    """Parse and validate fan JSON: {"rank", "rays", "max_cones"}.

    Ray indices in the file are 0-based; any float literal is rejected so
    coordinates stay exact.
    """
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        data = json.loads(text, parse_float=_reject_float, parse_constant=_reject_float)
    except FanFormatError:
        raise
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FanFormatError(f"invalid fan JSON: {exc}") from exc
    except RecursionError as exc:
        raise FanFormatError("invalid fan JSON: nested too deeply") from exc
    if not isinstance(data, dict):
        raise FanFormatError("fan file must contain a JSON object")
    missing = {"rank", "rays", "max_cones"} - set(data)
    if missing:
        raise FanFormatError(f"fan file missing keys: {sorted(missing)}")
    rank = data["rank"]
    if isinstance(rank, bool) or not isinstance(rank, int):
        raise FanFormatError("rank must be an integer")
    rays = data["rays"]
    cones = data["max_cones"]
    if not isinstance(rays, list) or not all(isinstance(r, list) for r in rays):
        raise FanFormatError("rays must be a list of integer vectors")
    if not isinstance(cones, list) or not all(isinstance(c, list) for c in cones):
        raise FanFormatError("max_cones must be a list of index lists")
    if any(isinstance(x, bool) or not isinstance(x, int) for r in rays for x in r):
        raise FanFormatError("ray coordinates must be integers")
    n = len(rays)
    for c in cones:
        for i in c:
            if isinstance(i, bool) or not isinstance(i, int):
                raise FanFormatError("cone entries must be integers")
            if not 0 <= i < n:
                raise FanFormatError(f"cone ray index {i} out of range (0-based)")
        if len(set(c)) != len(c):
            raise FanFormatError(f"cone {c} lists a ray index twice")
    return make_fan(rank, rays, [[i + 1 for i in c] for c in cones])


def fan_to_json(fan: StackyFan) -> str:
    """Canonical JSON serialization (0-based cone indices, sorted)."""
    payload = {
        "rank": fan.rank,
        "rays": [list(r) for r in fan.rays],
        "max_cones": [sorted(i - 1 for i in cone) for cone in fan.max_cones],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def fan_fingerprint(fan: StackyFan) -> str:
    """Stable hex fingerprint of the canonical serialization."""
    return hashlib.sha256(fan_to_json(fan).encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# validation


@lru_cache(maxsize=FAN_CACHE_SIZE)
def cone_adjugates(fan: StackyFan) -> tuple[tuple[int, IntMatrix], ...]:
    """(det V, adj V) per maximal cone of a valid fan, in the order of fan.max_cones.

    V is the cone's rays as rows in index order, and adj V = int_solve(V, I).
    Column j of adj V is the normal of the facet opposite the j-th ray, with
    product det V with that ray.
    """
    eye = [[int(i == j) for j in range(fan.rank)] for i in range(fan.rank)]
    return tuple(int_solve([fan.ray(i) for i in sorted(c)], eye) for c in fan.max_cones)


def validate(fan: StackyFan) -> None:
    """Check the fan axioms, naming the violated invariant on failure.

    Completeness is decided exactly. Facet pairing (every facet of a
    maximal cone shared by exactly two, with the opposite rays strictly
    separated) makes the number of maximal cones over a generic direction
    the same everywhere: it can only change across a wall, and each wall
    has one of its two cones on each side. The cones cover the space
    exactly once when the point p = sum of the rays of the first maximal
    cone, interior to it, lies in no other closed maximal cone. One Cramer
    solve of V^T x = p per cone, V its rays as rows in index order and p
    one column, gives det V (zero when the cone is not simplicial) and
    det V x, whose entries all have the sign of det V or are 0 when p is
    in the cone. A facet F separates v_i and v_j when
    det V_Fi det V_Fj (-1)^t < 0, t the number of rays of F between i and j
    (Cramer's rule for the normal of F).
    """
    m, n = fan.rank, fan.nrays
    if m < 1:
        raise FanValidationError("rank must be at least 1")
    if n == 0:
        raise FanValidationError("fan has no rays")
    for r in fan.rays:
        if len(r) != m:
            raise FanValidationError("ray length does not match rank")
        if all(x == 0 for x in r):
            raise FanValidationError("zero ray")
    # rays on one 1-cone share a primitive vector, listed at their first ray
    directions: dict[IntVector, list[int]] = {}
    for i, r in enumerate(fan.rays):
        g = math.gcd(*r)
        directions.setdefault(tuple(x // g for x in r), []).append(i)
    shared = next((same for same in directions.values() if len(same) > 1), None)
    if shared:
        i, j = shared[:2]
        if fan.rays[i] == fan.rays[j]:
            raise FanValidationError(f"duplicate ray vector at positions {i + 1}, {j + 1}")
        raise FanValidationError(f"rays {i + 1} and {j + 1} span the same 1-cone")
    if not fan.max_cones:
        raise FanValidationError("fan has no maximal cones")
    solves = []
    for cone in fan.max_cones:
        if len(cone) != m:
            raise FanValidationError("maximal cone size differs from rank")
        for i in cone:
            if not 1 <= i <= n:
                raise FanValidationError(f"cone ray index {i} out of range")
        rays = [fan.ray(i) for i in sorted(cone)]
        if not solves:
            p = [[sum(xs)] for xs in zip(*rays)]
        try:
            solves.append(int_solve(list(zip(*rays)), p))
        except SingularMatrixError:
            raise FanValidationError(f"maximal cone {sorted(cone)} not simplicial") from None
    missing = sorted(set(range(1, n + 1)).difference(*fan.max_cones))
    if missing:
        raise FanValidationError(f"rays {missing} unused by maximal cones")
    if len(set(fan.max_cones)) != len(fan.max_cones):
        raise FanValidationError("duplicate maximal cone")

    # facets as bitmasks of their rays, each with its opposite rays and determinants
    facets: dict[int, list[tuple[int, int]]] = {}
    for cone, (det, _) in zip(fan.max_cones, solves):
        mask = sum(1 << i for i in cone)
        for i in cone:
            facets.setdefault(mask ^ 1 << i, []).append((i, det))
    for facet, opposite in facets.items():
        if len(opposite) == 2:
            (i, det_i), (j, det_j) = opposite
            t = (facet & (1 << max(i, j)) - (2 << min(i, j))).bit_count()
            if det_i * det_j * (-1) ** t < 0:
                continue
        rays = [i for i in range(1, n + 1) if facet >> i & 1]
        if len(opposite) == 1:
            raise FanValidationError(f"facet {rays} unpaired")
        if len(opposite) > 2:
            raise FanValidationError(f"facet {rays} shared by more than two cones")
        raise FanValidationError(f"facet {rays} does not separate its two opposite rays")

    first, *others = fan.max_cones
    for cone, (det, x) in zip(others, solves[1:]):
        if all(y * det >= 0 for (y,) in x):
            raise FanValidationError(f"maximal cones {sorted(first)} and {sorted(cone)} overlap")


# ---------------------------------------------------------------------------
# ray queries


@lru_cache(maxsize=FAN_CACHE_SIZE)
def collinear_pairs(fan: StackyFan) -> tuple[tuple[int, int], ...]:
    """Pairs (i, j), i < j, whose rays span the same line through 0.

    The rays are grouped in one pass by their primitive vector up to sign,
    as validate groups them by 1-cone. In a valid fan two distinct rays on
    one line point in opposite directions, so a line holds at most two.
    """
    lines: dict[IntVector, list[int]] = {}
    for i, r in enumerate(fan.rays, 1):
        g = math.gcd(*r) * (1 if next(x for x in r if x) > 0 else -1)
        lines.setdefault(tuple(x // g for x in r), []).append(i)
    return tuple(sorted(tuple(same) for same in lines.values() if len(same) > 1))


@dataclass(frozen=True)
class RayNeighborhood:
    center: int
    members: frozenset[int]
    cycle: Optional[tuple[int, ...]]


@lru_cache(maxsize=FAN_CACHE_SIZE)
def neighborhood(fan: StackyFan, s: int) -> RayNeighborhood:
    """Rays sharing a two-dimensional cone with ray s.

    For rank 3 the members are also returned as the cycle around s: walk
    the edges {i, j} with {s, i, j} a maximal cone, starting at the
    smallest member toward its smaller neighbor, so the result is fixed up
    to the rotation/reflection that canonicalization removes.
    """
    if not 1 <= s <= fan.nrays:
        raise ValueError(f"ray index {s} out of range")
    # every two rays of a maximal cone span a two-dimensional cone
    members = frozenset().union(*(c for c in fan.max_cones if s in c)) - {s}
    if fan.rank != 3:
        return RayNeighborhood(s, members, None)
    adj: dict[int, list[int]] = {j: [] for j in members}
    for cone in fan.max_cones:
        if s in cone:
            i, j = sorted(cone - {s})
            adj[i].append(j)
            adj[j].append(i)
    for j, nb in adj.items():
        if len(set(nb)) != 2 or len(nb) != 2:
            raise FanValidationError(f"link of ray {s} is not a single cycle")
    start = min(members)
    second = min(adj[start])
    cycle = [start, second]
    while True:
        prev, cur = cycle[-2], cycle[-1]
        nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
        if nxt == start:
            break
        cycle.append(nxt)
        if len(cycle) > len(members):
            raise FanValidationError(f"link of ray {s} is not a single cycle")
    if len(cycle) != len(members):
        raise FanValidationError(f"link of ray {s} is not a single cycle")
    return RayNeighborhood(s, members, tuple(cycle))
