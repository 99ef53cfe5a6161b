"""Independent oracles that share no code with the floor-diagram engine.

No production module imports this one; the tests do.

``caporaso_harris`` is the Caporaso-Harris recursion (Caporaso & Harris,
Counting plane curves of any genus, Invent. Math. 131, 1998; tropical
proof in Gathmann & Markwig, Math. Ann. 338, 2007) for relative Severi
degrees N^{d,delta}(alpha, beta): possibly reducible delta-nodal degree-d
curves through the right number of generic points, with tangency alpha to
a fixed line at fixed points and beta at moving points.  alpha and beta
are multiplicity vectors: alpha[k-1] is the number of contacts of order
k.  Relative to the engine's partitions, lambda maps to alpha and rho to
beta, so the ordinary Severi degree is N^{d,delta}(0, (d)).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product, zip_longest
from math import comb, prod

Vector = tuple[int, ...]


def _trim(vec) -> Vector:
    vec = list(vec)
    while vec and not vec[-1]:
        vec.pop()
    return tuple(vec)


def _weight(vec: Vector) -> int:
    """I(vec) = sum of k * vec_k."""
    return sum(k * c for k, c in enumerate(vec, start=1))


def _add(u: Vector, v: Vector) -> Vector:
    return _trim(a + b for a, b in zip_longest(u, v, fillvalue=0))


def _shift(vec: Vector, k: int, by: int) -> Vector:
    """vec + by * e_k."""
    return _add(vec, (0,) * (k - 1) + (by,))


@lru_cache(maxsize=None)
def _vectors_of_weight(n: int, top: int) -> tuple[Vector, ...]:
    """Every multiplicity vector gamma with I(gamma) = n and no part above
    ``top``: the partitions of n."""
    if n == 0:
        return ((),)
    return tuple(
        _shift(rest, k, 1)
        for k in range(min(n, top), 0, -1)
        for rest in _vectors_of_weight(n - k, k)
    )


@lru_cache(maxsize=None)
def _ch(d: int, delta: int, alpha: Vector, beta: Vector) -> int:
    if delta < 0 or _weight(alpha) + _weight(beta) != d:
        return 0
    if d == 0:
        return 1 if delta == 0 else 0
    total = 0
    for k, b in enumerate(beta, start=1):
        if b:
            total += k * _ch(d, delta, _shift(alpha, k, 1), _shift(beta, k, -1))
    for sub in product(*(range(a + 1) for a in alpha)):
        alpha_p = _trim(sub)
        free = d - 1 - _weight(alpha_p) - _weight(beta)
        if free < 0:
            continue
        choose_alpha = prod(comb(a, ap) for a, ap in zip(alpha, sub))
        for gamma in _vectors_of_weight(free, free):
            delta_p = delta - (d - 1) + sum(gamma)
            if delta_p < 0:
                continue
            beta_p = _add(beta, gamma)
            tangency = prod((k + 1) ** g for k, g in enumerate(gamma))
            choose_beta = prod(comb(bp, b) for bp, b in zip(beta_p, beta))
            total += (
                tangency * choose_alpha * choose_beta * _ch(d - 1, delta_p, alpha_p, beta_p)
            )
    return total


def caporaso_harris(d: int, delta: int, alpha: Vector = (), beta: Vector | None = None) -> int:
    """N^{d,delta}(alpha, beta) by the Caporaso-Harris recursion.

    N^{0,0}(0, 0) = 1, and N is 0 unless I(alpha) + I(beta) = d and
    delta >= 0.  Otherwise
      N^{d,delta}(alpha, beta) = sum_{k: beta_k > 0} k N^{d,delta}(alpha + e_k, beta - e_k)
        + sum I^{beta'-beta} C(alpha, alpha') C(beta', beta) N^{d-1,delta'}(alpha', beta'),
    the second sum over alpha' <= alpha and beta' >= beta with
    I(alpha') + I(beta') = d - 1 and delta' = delta - (d-1) + |beta' - beta|,
    where I^gamma = prod k^gamma_k and C(alpha, alpha') = prod C(alpha_k, alpha'_k).
    ``beta`` defaults to (d,), the ordinary Severi degree.
    """
    if beta is None:
        beta = (d,)
    return _ch(d, delta, _trim(alpha), _trim(beta))
