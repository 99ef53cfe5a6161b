"""Enumerative invariants assembled from diagrams and markings.

Every invariant is an exact integer: a sum of multiplicity times marking
count over floor diagrams.

Severi degrees come from one fused floor sweep, ``_severi_row``.  It walks
the floors 1..d and the gaps between them once, choosing each floor's
outgoing edges and placing the marking's midpoints and sinks as it goes,
so no diagram is built, and one sweep gives a whole row of a degree.
Gromov-Witten numbers invert the splitting formula: gw(d, g) is the
one-component term of severi(d, delta), the Severi degree minus the
products of lower-degree gw over every split into several components.

Relative invariants, Welschinger numbers and tangency counts stream the
enumerated diagrams and count the markings of each one.  Independent
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
    gap_choices,
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


# -- the fused floor sweep ----------------------------------------------------


@lru_cache(maxsize=None)
def _edge_bundles(cap: int) -> dict[tuple[int, int], Fraction]:
    """The edges one floor may send to one later floor, grouped by
    (edge count, weight sum) with weight sum at most ``cap``.

    Each group holds the sum, over its weight multisets, of prod w^2 over
    prod m_w!, where m_w counts the parallel edges of weight w: their
    multiplicity over the symmetry of their midpoints.
    """
    bundles: dict[tuple[int, int], Fraction] = {}

    # weights are added in weakly decreasing order; run counts the parts
    # equal to top so far, so a run of m equal parts divides by m!
    def grow(top: int, n: int, s: int, value: Fraction, run: int):
        bundles[(n, s)] = bundles.get((n, s), 0) + value
        for w in range(min(top, cap - s), 0, -1):
            same = run + 1 if w == top else 1
            grow(w, n + 1, s + w, value * w * w / same, same)

    grow(cap, 0, 0, Fraction(1), 0)
    return bundles


@lru_cache(maxsize=None)
def _floor_choices(budget: int, targets: int, cap: int) -> tuple:
    """Every choice of outgoing edges at a floor with incoming weight
    ``budget`` - 1 and ``targets`` later floors.

    Each choice is (edge count per target, weight per target, factor).
    The floor keeps budget - sum(weights) sinks, so the factor is the
    product of the chosen bundles over the sinks' symmetry, sinks!.
    """
    by_sum: dict[int, list[tuple[int, Fraction]]] = {}
    for (n, s), value in _edge_bundles(cap).items():
        by_sum.setdefault(s, []).append((n, value))
    out = []

    def pick(left: int, counts: tuple, weights: tuple, factor: Fraction):
        if len(counts) == targets:
            out.append((counts, weights, factor / factorial(left)))
            return
        for s in range(left + 1):
            for n, value in by_sum.get(s, ()):
                pick(left - s, counts + (n,), weights + (s,), factor * value)

    pick(budget, (), (), Fraction(1))
    return tuple(out)


@lru_cache(maxsize=None)
def _severi_row(d: int) -> dict[int, int]:
    """{edge count: sum of mu * nu} over every degree-d diagram, connected
    or not, where nu counts the ordinary markings (lambda empty, rho 1^d).

    The sweep runs floor v, then gap v, for v = 1..d.  A state before
    floor v is (edges so far, incoming weight promised to each of the
    floors v..d, unplaced midpoints of edges into each of the floors
    v+1..d, unplaced sinks); its value sums mu / symmetry times the ways
    to place the items so far.  Floor v picks all its outgoing edges at
    once, which fixes its sinks.  Gap v is one ``gap_choices`` transfer,
    with each midpoint due before its edge's target: midpoints into floor
    v+1 must be placed there, and every other pending item may be.  Gap d
    places the remaining sinks.
    """
    states = {(0, (0,) * d, (0,) * (d - 1), 0): Fraction(1)}
    for v in range(1, d + 1):
        floored: dict = {}
        for (edges, promised, pending, sinks), value in states.items():
            budget = promised[0] + 1
            for counts, weights, factor in _floor_choices(budget, d - v, d - 1):
                key = (
                    edges + sum(counts),
                    tuple(p + w for p, w in zip(promised[1:], weights)),
                    tuple(p + n for p, n in zip(pending, counts)),
                    sinks + budget - sum(weights),
                )
                floored[key] = floored.get(key, 0) + value * factor
        states = {}
        for (edges, promised, pending, sinks), value in floored.items():
            if v == d:
                mandatory, classes = sinks, ()
            else:
                mandatory, classes = pending[0], pending[1:] + (sinks,)
            for rest, ways in gap_choices(mandatory, classes):
                key = (edges, promised, rest[:-1], rest[-1] if rest else 0)
                states[key] = states.get(key, 0) + value * ways
    row: dict[int, Fraction] = {}
    for (edges, _, _, _), value in states.items():
        row[edges] = row.get(edges, 0) + value
    for edges, value in row.items():
        if value.denominator != 1:
            raise AssertionError(
                f"degree-{d} sweep gives a non-integer sum at {edges} edges: {value}"
            )
    return {edges: int(value) for edges, value in row.items()}


# -- Severi degrees and their splitting ---------------------------------------


def _max_genus(d: int) -> int:
    return (d - 1) * (d - 2) // 2


def _split_terms(d: int, delta: int):
    """Every way a delta-nodal degree-d curve splits into components.

    Yields (ways, parts) for each multiset parts = ((d_j, delta_j), ...)
    with sum d_j = d and sum delta_j + sum_{j<j'} d_j d_j' = delta.  ways
    is the multinomial count of ways to share the d(d+3)/2 - delta points
    among the components, divided by the symmetry of repeated components.
    """
    n_markers = d * (d + 3) // 2 - delta

    def parts(prev: tuple[int, int], d_left: int, delta_left: int, acc: list):
        if d_left == 0:
            if delta_left:
                return
            ways = factorial(n_markers)
            for dj, deltaj in acc:
                ways //= factorial(dj * (dj + 3) // 2 - deltaj)
            for cnt in Counter(acc).values():
                ways //= factorial(cnt)
            yield ways, tuple(acc)
            return
        for dj in range(min(prev[0], d_left), 0, -1):
            pair_cost = dj * (d_left - dj)
            max_deltaj = min(_max_genus(dj), delta_left - pair_cost)
            start = prev[1] if dj == prev[0] else max_deltaj
            for deltaj in range(min(start, max_deltaj), -1, -1):
                acc.append((dj, deltaj))
                rest = delta_left - pair_cost - deltaj
                yield from parts((dj, deltaj), d_left - dj, rest, acc)
                acc.pop()

    yield from parts((d, delta), d, delta, [])


def _split_value(ways: int, parts: tuple[tuple[int, int], ...]) -> int:
    """One term of the splitting formula: ways times the components' gw."""
    return ways * prod(gw(dj, _max_genus(dj) - deltaj) for dj, deltaj in parts)


@lru_cache(maxsize=None)
def gw(d: int, g: int) -> int:
    """Count of irreducible degree-d genus-g plane curves through 3d+g-1 points.

    Inverts the splitting formula: severi(d, delta) with delta =
    (d-1)(d-2)/2 - g, minus every term that splits the curve into two or
    more components, each of lower degree.
    """
    if d < 1 or g < 0:
        raise DiagramError(f"need d >= 1 and g >= 0, got d={d}, g={g}")
    delta = _max_genus(d) - g
    if delta < 0:
        return 0
    return severi(d, delta) - sum(
        _split_value(ways, parts)
        for ways, parts in _split_terms(d, delta)
        if len(parts) > 1
    )


@lru_cache(maxsize=None)  # the row is memoized too; perfbench's warm pass clears this
def severi(d: int, delta: int) -> int:
    """Count of possibly reducible delta-nodal degree-d curves.

    Reads one entry of the degree's sweep row: all (possibly
    disconnected) diagrams of cogenus delta have d(d-1)/2 - delta edges,
    and the floor chain and the markings are global across components.
    """
    if d < 1 or delta < 0:
        raise DiagramError(f"need d >= 1 and delta >= 0, got d={d}, delta={delta}")
    return _severi_row(d).get(d * (d - 1) // 2 - delta, 0)


def severi_split_oracle(d: int, delta: int) -> int:
    """Severi degree via the splitting formula over unordered component data.

    Sums over multisets {(d_j, delta_j)} with sum d_j = d and
    sum delta_j + sum_{j<j'} d_j d_j' = delta; each multiset contributes a
    multinomial marker-set count divided by repetition symmetry, times the
    product of connected invariants.  Since gw is this formula solved for
    its one-component term, the two agree by construction whenever delta
    <= (d-1)(d-2)/2; beyond that every term splits and the sum is
    independent of severi(d, delta).
    """
    if d < 1 or delta < 0:
        raise DiagramError(f"need d >= 1 and delta >= 0, got d={d}, delta={delta}")
    return sum(_split_value(ways, parts) for ways, parts in _split_terms(d, delta))


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
