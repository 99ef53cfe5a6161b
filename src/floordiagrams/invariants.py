"""Enumerative invariants assembled from diagrams and markings.

Every invariant is an exact integer obtained by streaming diagrams from
the enumeration layer and weighting their marking counts.  Independent
oracles (splitting formula, Kontsevich recursion, closed forms) validate
the direct computations.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

from .core import DiagramError, Partition
from .enumeration import DiagramQuery, enumerate_diagrams
from .markings import (
    count_markings,
    count_relative_markings,
    ordering_count_with_pinned_sinks,
)


def _weighted_marking_sum(query: DiagramQuery, lam: Partition, rho: Partition) -> int:
    """Sum of multiplicity * prod(rho) * relative marking count over the
    query's diagrams, taken one diagram at a time as they are enumerated."""
    rho_factor = prod(rho.parts)
    return sum(
        diag.multiplicity() * rho_factor * count_relative_markings(diag, lam, rho)
        for diag in enumerate_diagrams(query)
    )


@lru_cache(maxsize=None)
def gw(d: int, g: int) -> int:
    """Count of irreducible degree-d genus-g plane curves through 3d+g-1 points."""
    if d < 1 or g < 0:
        raise DiagramError(f"need d >= 1 and g >= 0, got d={d}, g={g}")
    return _weighted_marking_sum(DiagramQuery(d, genus=g), Partition(()), Partition.ones(d))


@lru_cache(maxsize=None)
def severi(d: int, delta: int) -> int:
    """Count of possibly reducible delta-nodal degree-d curves.

    Sums multiplicity times marking count over all (possibly disconnected)
    diagrams of the given cogenus; the floor chain and the markings are
    global across components.
    """
    if d < 1 or delta < 0:
        raise DiagramError(f"need d >= 1 and delta >= 0, got d={d}, delta={delta}")
    return _weighted_marking_sum(
        DiagramQuery(d, cogenus=delta), Partition(()), Partition.ones(d)
    )


def severi_split_oracle(d: int, delta: int) -> int:
    """Severi degree via the splitting formula over unordered component data.

    Sums over multisets {(d_j, delta_j)} with sum d_j = d and
    sum delta_j + sum_{j<j'} d_j d_j' = delta; each multiset contributes a
    multinomial marker-set count divided by repetition symmetry, times the
    product of connected invariants.
    """
    if d < 1 or delta < 0:
        raise DiagramError(f"need d >= 1 and delta >= 0, got d={d}, delta={delta}")
    n_markers = d * (d + 3) // 2 - delta
    total = 0

    def parts(prev: tuple[int, int], d_left: int, delta_left: int, acc: list):
        nonlocal total
        if d_left == 0:
            if delta_left:
                return
            ways = factorial(n_markers)
            for dj, deltaj in acc:
                ways //= factorial(dj * (dj + 3) // 2 - deltaj)
            for cnt in Counter(acc).values():
                ways //= factorial(cnt)
            value = ways
            for dj, deltaj in acc:
                gj = (dj - 1) * (dj - 2) // 2 - deltaj
                value *= gw(dj, gj)
            total += value
            return
        for dj in range(min(prev[0], d_left), 0, -1):
            pair_cost = dj * (d_left - dj)
            max_deltaj = min((dj - 1) * (dj - 2) // 2, delta_left - pair_cost)
            start = prev[1] if dj == prev[0] else max_deltaj
            for deltaj in range(min(start, max_deltaj), -1, -1):
                acc.append((dj, deltaj))
                parts((dj, deltaj), d_left - dj, delta_left - pair_cost - deltaj, acc)
                acc.pop()

    parts((d, delta), d, delta, [])
    return total


@lru_cache(maxsize=None)
def relative_gw(d: int, g: int, lam: Partition, rho: Partition) -> int:
    """Relative invariant: tangency lambda at fixed points, rho at moving ones."""
    if lam.size + rho.size != d:
        raise DiagramError(
            f"|lambda| + |rho| must equal d: {lam.size} + {rho.size} != {d}"
        )
    if g < 0:
        raise DiagramError(f"genus must be nonnegative, got {g}")
    return _weighted_marking_sum(DiagramQuery(d, genus=g), lam, rho)


def welschinger(d: int) -> int:
    """Signed real rational curve count: marking counts of odd genus-0 diagrams."""
    if d < 1:
        raise DiagramError(f"degree must be positive, got {d}")
    total = 0
    for diag in enumerate_diagrams(DiagramQuery(d, genus=0, filter="odd")):
        total += count_markings(diag)
    return total


@lru_cache(maxsize=None)
def kontsevich_oracle(d: int) -> int:
    """Genus-0 invariant via the quadratic recursion, seeded with N(1,0)=1."""
    if d < 1:
        raise DiagramError(f"degree must be positive, got {d}")
    if d == 1:
        return 1
    total = 0
    for k in range(1, d):
        l = d - k
        total += (
            kontsevich_oracle(k)
            * kontsevich_oracle(l)
            * k * k * l
            * (l * comb(3 * d - 4, 3 * k - 2) - k * comb(3 * d - 4, 3 * k - 1))
        )
    return total


def closed_form_gmax(d: int, lam: Partition, rho: Partition) -> int:
    """Relative invariant at maximal genus: rho_1 rho_2 ... len(rho)!/prod(beta!)."""
    if lam.size + rho.size != d:
        raise DiagramError(
            f"|lambda| + |rho| must equal d: {lam.size} + {rho.size} != {d}"
        )
    return prod(rho.parts) * rho.distinct_orderings()


def closed_form_uninodal(d: int, lam: Partition, rho: Partition) -> int:
    """Relative invariant one below maximal genus, in closed form."""
    if lam.size + rho.size != d:
        raise DiagramError(
            f"|lambda| + |rho| must equal d: {lam.size} + {rho.size} != {d}"
        )
    if d < 3:
        raise DiagramError(f"uninodal closed form needs d >= 3, got {d}")
    alpha1 = lam.count(1)
    if rho.length == 0:
        return (d - 2) * (3 * d - 2) + alpha1
    beta1 = rho.count(1)
    value = (
        Fraction((d - 2) * (3 * d - 2) + alpha1 + beta1)
        + Fraction((d - 1) * beta1, rho.length)
    ) * closed_form_gmax(d, lam, rho)
    if value.denominator != 1:
        raise AssertionError(f"uninodal closed form must be integral, got {value}")
    return int(value)


def collinear_triple(d: int, g: int) -> int:
    """Curves through a generic triple of collinear points: N(d,g) - (d-1) N(d-1,g)."""
    if d < 3:
        raise DiagramError(f"collinear-triple formula needs d >= 3, got {d}")
    return gw(d, g) - (d - 1) * gw(d - 1, g)


def tangency_at_point(d: int, g: int, k: int) -> int:
    """Order-k tangency at a fixed point of a fixed line.

    Computed two ways: the ordinary-marking sum restricted to markings
    whose top k elements are sinks of one common floor, and the relative
    invariant with lambda=(k).  Both must agree.
    """
    if not 1 <= k <= d - 1:
        raise DiagramError(f"need 1 <= k <= d-1, got k={k}, d={d}")
    filtered = 0
    for diag in enumerate_diagrams(DiagramQuery(d, genus=g)):
        part = sum(
            ordering_count_with_pinned_sinks(diag, v, k) for v in range(1, d + 1)
        )
        filtered += diag.multiplicity() * part
    direct = relative_gw(d, g, Partition((k,)), Partition.ones(d - k))
    if filtered != direct:
        raise AssertionError(
            f"tangency routes disagree for (d,g,k)=({d},{g},{k}): "
            f"{filtered} != {direct}"
        )
    return direct
