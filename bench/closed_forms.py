"""Closed-form cohomology of projective spaces and their products.

An independent check on benchmark outputs that never runs the package:
O(d) on P^n has h^0 = C(d+n, n) for d >= 0 and h^n = C(-d-1, n) for
d <= -n-1, and a product takes the Kuenneth convolution of its factors.
A fan here is described by its factor dimensions (n1, n2, ...), with the
n_k + 1 rays of factor k consecutive and laid out as e_1, ..., e_n,
-(e_1 + ... + e_n), so the degree on a factor is the sum of its
coefficients.
"""

from __future__ import annotations

from math import comb
from typing import Optional, Sequence

from inputs import PRODUCTS

_DIMS = {"p1": 1, "p2": 2, "p3": 3}

# Factor dimensions of every benchmark fan with a closed form, by CLI source.
FACTORS: dict[str, tuple[int, ...]] = {
    "@p1": (1,),
    "@p2": (2,),
    "@p3": (3,),
    "@p1xp1": (1, 1),
    "@p1xp2": (1, 2),
    "@p1xp1xp1": (1, 1, 1),
}
FACTORS.update(
    {
        f"bench/fans/{name}.json": tuple(_DIMS[f] for f in factors)
        for name, factors in PRODUCTS.items()
    }
)


def h_pn(n: int, d: int) -> tuple[int, ...]:
    """(h^0, ..., h^n) of O(d) on P^n."""
    h = [0] * (n + 1)
    if d >= 0:
        h[0] = comb(d + n, n)
    if d <= -n - 1:
        h[n] = comb(-d - 1, n)
    return tuple(h)


def h_product(ha: Sequence[int], hb: Sequence[int]) -> tuple[int, ...]:
    """Cohomology of an external tensor product from factor dimensions."""
    out = [0] * (len(ha) + len(hb) - 1)
    for p, x in enumerate(ha):
        for q, y in enumerate(hb):
            out[p + q] += x * y
    return tuple(out)


def closed_form(source: str, coeffs: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Cohomology of the class with these coefficients, or None without a closed form."""
    dims = FACTORS.get(source)
    if dims is None:
        return None
    if len(coeffs) != sum(n + 1 for n in dims):
        raise ValueError(f"{source}: expected {sum(n + 1 for n in dims)} coefficients")
    h: tuple[int, ...] = (1,)
    pos = 0
    for n in dims:
        h = h_product(h, h_pn(n, sum(coeffs[pos : pos + n + 1])))
        pos += n + 1
    return h
