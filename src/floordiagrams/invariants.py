"""Enumerative invariants assembled from diagrams and markings.

Every invariant is an exact integer: a sum of multiplicity times marking
count over floor diagrams.

Gromov-Witten numbers, Severi degrees and relative invariants come from
one fused floor sweep, ``_relative_rows``.  It walks the floors 1..d and
the gaps between them once, choosing each floor's outgoing edges, its
lambda parts and its rho sinks and placing the marking's midpoints and
sinks as it goes, so no diagram is built, and one sweep gives the sums
over every (possibly disconnected) diagram of a degree, grouped by
tangency profile and edge count, for every profile inside a cap.
``_row`` picks the cap: lambda empty and rho = 1^d, the profile of ``gw``
and ``severi``, has a sweep of its own, and every other profile reads the
sweep over all profiles of its degree, so a whole grid of profiles costs
one sweep per degree.  Severi degrees read a row; the connected sums
behind ``relative_gw`` and ``gw`` come from the rows by one inversion over
the component that holds floor 1.

Welschinger numbers are the connected genus-0 sum of the same sweep with
the real multiplicity in place of mu: each edge weighs 1 when its weight
is odd and 0 when it is even, in place of w^2 (Brugalle & Mikhalkin,
Floor decompositions of tropical curves: the planar case, Gokova 2008).
``_weighted_marking_sum`` streams the enumerated diagrams and counts the
markings of each one; it is the oracle the sweep is tested against.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial, prod
from operator import add

from .core import DiagramError, Partition
from .enumeration import DiagramQuery, enumerate_diagrams
# perfbench/tracing.py patches enumerate_diagrams and both marking counters here
from .markings import count_markings, count_relative_markings, gap_choices

Vector = tuple[int, ...]  # multiplicity vector: entry k-1 counts the parts equal to k


def _weighted_marking_sum(query: DiagramQuery, lam: Partition, rho: Partition) -> int:
    """Sum of multiplicity * prod(rho) * relative marking count over the
    query's diagrams, taken one diagram at a time as they are enumerated."""
    rho_factor = prod(rho.parts)
    return sum(
        diag.multiplicity() * rho_factor * count_relative_markings(diag, lam, rho)
        for diag in enumerate_diagrams(query)
    )


def _vector(parts: tuple[int, ...]) -> Vector:
    return tuple(parts.count(k) for k in range(1, max(parts, default=0) + 1))


def _trim(vec) -> Vector:
    vec = list(vec)
    while vec and not vec[-1]:
        vec.pop()
    return tuple(vec)


def _weight(vec: Vector) -> int:
    """I(vec) = sum of k * vec_k."""
    return sum(k * c for k, c in enumerate(vec, start=1))


# -- the fused floor sweep ----------------------------------------------------


@lru_cache(maxsize=None)
def _edge_bundle(n: int, s: int, odd: bool) -> int:
    """Sum of prod w^2 over the ordered n-tuples of positive weights with
    sum s: n! times mu over the symmetry of the parallel midpoints,
    summed over the weight multisets of n edges between two floors.

    With ``odd``, each edge weighs w mod 2 in place of w^2: the real
    multiplicity, 1 when every edge weight is odd and 0 otherwise.
    """
    if n == 0:
        return 1 if s == 0 else 0
    return sum(
        (w % 2 if odd else w * w) * _edge_bundle(n - 1, s - w, odd)
        for w in range(1, s - n + 2)
    )


@lru_cache(maxsize=None)
def _outgoing(budget: int, targets: int, odd: bool) -> tuple:
    """Every choice of outgoing edges at a floor with incoming weight
    ``budget`` - 1 and ``targets`` later floors.

    Each choice is (edge count, edge count per target, weight per target,
    unused budget, prod of the bundles, prod of the edge counts'
    factorials).
    """
    out = []

    def pick(left: int, counts: tuple, weights: tuple, bundles: int, parallel: int):
        if len(counts) == targets:
            out.append((sum(counts), counts, weights, left, bundles, parallel))
            return
        pick(left, counts + (0,), weights + (0,), bundles, parallel)
        for s in range(1, left + 1):
            for n in range(1, s + 1):
                # with odd, n odd weights never sum to s of the other parity
                bundle = _edge_bundle(n, s, odd)
                if bundle:
                    pick(left - s, counts + (n,), weights + (s,),
                         bundles * bundle, parallel * factorial(n))

    pick(budget, (), (), 1, 1)
    return tuple(out)


@lru_cache(maxsize=None)
def _leftover_splits(left: int, lam: Vector, rho: Vector) -> tuple:
    """Every way a floor spends ``left`` units of unused budget on lambda
    parts and rho sinks, from the parts still unused; ``lam`` and ``rho``
    have the same length.

    Each way is (lambda left, rho left, sinks placed, symmetry).  The t
    lambda parts and the u sinks of size k that one floor takes are each
    interchangeable, so the symmetry is t! u!; the labels of the lambda
    parts are paid once per final state, by prod lambda_k! over the parts
    used.
    """
    out = []

    def split(k: int, left: int, lam_left: tuple, rho_left: tuple, placed: int, symmetry: int):
        if not left:
            out.append((lam_left + lam[k - 1:], rho_left + rho[k - 1:], placed, symmetry))
            return
        if k > len(lam):
            return
        r, q = lam[k - 1], rho[k - 1]
        for t in range(min(r, left // k) + 1):
            for u in range(min(q, left // k - t) + 1):
                split(k + 1, left - k * (t + u), lam_left + (r - t,), rho_left + (q - u,),
                      placed + u, symmetry * factorial(t) * factorial(u))

    split(1, left, (), (), 0, 1)
    return tuple(out)


@lru_cache(maxsize=None)
def _relative_rows(d: int, lam_cap: Vector, rho_cap: Vector, odd: bool = False) -> dict:
    """{(lambda, rho): {edge count: sum of mu * nu_{lambda,rho}}} over every
    degree-d diagram, connected or not, for every profile lambda <= lam_cap,
    rho <= rho_cap with I(lambda) + I(rho) = d; all are trimmed
    multiplicity vectors.

    The sweep runs floor v, then gap v, for v = 1..d.  A state before
    floor v is (edges so far, incoming weight promised to each of the
    floors v..d, unplaced midpoints of edges into each of the floors
    v+1..d, unplaced sinks, lambda parts left, rho parts left), starting
    from the caps; its value sums mu / symmetry times the ways to place
    the items so far.  Floor v picks all its outgoing edges at once, then
    spends its unused budget on lambda parts and rho sinks.  Gap v is one
    ``gap_choices`` transfer, with each midpoint due before its edge's
    target: midpoints into floor v+1 must be placed there, and every other
    pending item may be.  Gap d places the remaining sinks.  The final
    states are grouped by the parts used, cap minus left, and each is
    multiplied by prod lambda_k! for the labels of its lambda parts.

    Values are integers scaled by N!, N = d(d-1)/2 + d: midpoints, sinks
    and lambda parts are at most that many disjoint items, so every
    product of parallel-edge, sink and lambda factorials divides it, each
    division is exact, and a remainder raises AssertionError.  ``odd``
    weighs the edges as ``_edge_bundle`` does.
    """
    scale = factorial(d * (d - 1) // 2 + d)
    size = max(len(lam_cap), len(rho_cap))
    lam_cap += (0,) * (size - len(lam_cap))
    rho_cap += (0,) * (size - len(rho_cap))
    states = {(0, (0,) * d, (0,) * (d - 1), 0, lam_cap, rho_cap): scale}
    for v in range(1, d + 1):
        floored: dict = {}
        for (edges, promised, pending, sinks, lam_left, rho_left), value in states.items():
            later = promised[1:]
            for added, counts, weights, left, bundles, parallel in _outgoing(promised[0] + 1, d - v, odd):
                splits = _leftover_splits(left, lam_left, rho_left)
                if not splits:
                    continue
                head = (
                    edges + added,
                    tuple(map(add, later, weights)),
                    tuple(map(add, pending, counts)),
                )
                for lam_next, rho_next, placed, symmetry in splits:
                    share, rest = divmod(value * bundles, parallel * symmetry)
                    if rest:
                        raise AssertionError(
                            f"degree-{d} sweep: {parallel * symmetry} does not divide "
                            f"{value * bundles} at floor {v}"
                        )
                    key = head + (sinks + placed, lam_next, rho_next)
                    floored[key] = floored.get(key, 0) + share
        states = {}
        for (edges, promised, pending, sinks, lam_left, rho_left), value in floored.items():
            if v == d:
                mandatory, classes = sinks, ()
            else:
                mandatory, classes = pending[0], pending[1:] + (sinks,)
            for rest, ways in gap_choices(mandatory, classes):
                key = (edges, promised, rest[:-1], rest[-1] if rest else 0, lam_left, rho_left)
                states[key] = states.get(key, 0) + value * ways
    rows: dict = {}
    for (edges, _, _, _, lam_left, rho_left), value in states.items():
        lam = _trim(c - r for c, r in zip(lam_cap, lam_left))
        rho = _trim(c - r for c, r in zip(rho_cap, rho_left))
        # the floors' unused budgets add up to d
        if _weight(lam) + _weight(rho) != d:
            raise AssertionError(
                f"degree-{d} sweep uses parts of weight other than {d}: lambda {lam}, rho {rho}"
            )
        row = rows.setdefault((lam, rho), {})
        row[edges] = row.get(edges, 0) + value * prod(map(factorial, lam))
    for profile, row in rows.items():
        for edges, value in row.items():
            row[edges], rest = divmod(value, scale)
            if rest:
                raise AssertionError(
                    f"degree-{d} sweep gives a non-integer sum at {profile}, {edges} edges: "
                    f"{value} / {scale}"
                )
    return rows


def _row(d: int, lam: Vector, rho: Vector, odd: bool = False) -> dict[int, int]:
    """{edge count: sum of mu * nu_{lambda,rho}} over every degree-d diagram.

    lambda empty and rho = 1^d, the profile of ``gw`` and ``severi``, reads
    the sweep capped at that one profile; every other profile reads its
    degree's sweep over all profiles, so a grid of profiles costs one
    sweep per degree.
    """
    if not lam and rho == (d,):
        cap = (), rho
    else:
        cap = (tuple(d // k for k in range(1, d + 1)),) * 2
    return _relative_rows(d, *cap, odd).get((lam, rho), {})


# -- connected sums by inversion ----------------------------------------------


@lru_cache(maxsize=None)
def _sub_vectors(vec: Vector) -> tuple[tuple[Vector, Vector, int], ...]:
    """Every (sub-vector, complement, ways) of a multiplicity vector, where
    ways = prod C(vec_k, sub_k) counts the choices of distinguishable
    parts; both vectors are trimmed."""
    out = [((), (), 1)]
    for c in vec:
        out = [
            (sub + (t,), rest + (c - t,), ways * comb(c, t))
            for sub, rest, ways in out
            for t in range(c + 1)
        ]
    return tuple((_trim(sub), _trim(rest), ways) for sub, rest, ways in out)


@lru_cache(maxsize=None)
def _connected(d: int, edges: int, lam: Vector, rho: Vector, odd: bool = False) -> int:
    """Sum of mu * nu_{lambda,rho} over the connected degree-d diagrams
    with ``edges`` edges; with ``odd``, of the real multiplicity in place
    of mu.

    A marked diagram splits into marked components and a shuffle of their
    n items (d floors, the edges' midpoints and one sink per rho part),
    and floor 1 comes first in every marking.  So the row value is this
    sum plus, for every component that holds floor 1 with degree d1 < d,
    C(n-1, n1-1) ways to choose its other items' positions, times
    C(lambda, lambda1) for its lambda indices, times its connected sum,
    times the row value of the rest.  With lambda empty and rho = 1^d this
    is the splitting formula for Severi degrees, with n the number of
    points.  Every row is read through ``_row``, so the inversion for
    lambda empty and rho = 1^d stays on the sweeps capped at that profile,
    and any other profile's sub-rows come from the all-profile sweeps of
    the lower degrees.
    """
    total = _row(d, lam, rho, odd).get(edges, 0)
    n = d + edges + sum(rho)
    for lam1, lam2, lam_ways in _sub_vectors(lam):
        for rho1, rho2, _ in _sub_vectors(rho):
            d1 = _weight(lam1) + _weight(rho1)
            if not 0 < d1 < d:
                continue
            rest = _row(d - d1, lam2, rho2, odd)
            for e1 in range(d1 - 1, d1 * (d1 - 1) // 2 + 1):
                other = rest.get(edges - e1)
                if other:
                    n1 = d1 + e1 + sum(rho1)
                    part = _connected(d1, e1, lam1, rho1, odd)
                    total -= comb(n - 1, n1 - 1) * lam_ways * part * other
    return total


# -- the invariants -----------------------------------------------------------


@lru_cache(maxsize=None)
def gw(d: int, g: int) -> int:
    """Count of irreducible degree-d genus-g plane curves through 3d+g-1 points.

    The relative invariant with lambda empty and rho = 1^d: the connected
    sum of the sweep, 0 past the maximal genus (d-1)(d-2)/2.
    """
    if d < 1 or g < 0:
        raise DiagramError(f"need d >= 1 and g >= 0, got d={d}, g={g}")
    return relative_gw(d, g, Partition(()), Partition.ones(d))


@lru_cache(maxsize=None)  # the row is memoized too; perfbench's warm pass clears this
def severi(d: int, delta: int) -> int:
    """Count of possibly reducible delta-nodal degree-d curves.

    Reads one entry of the degree's sweep row with lambda empty and
    rho = 1^d: all (possibly disconnected) diagrams of cogenus delta have
    d(d-1)/2 - delta edges, and the floor chain and the markings are
    global across components.
    """
    if d < 1 or delta < 0:
        raise DiagramError(f"need d >= 1 and delta >= 0, got d={d}, delta={delta}")
    return _row(d, (), (d,)).get(d * (d - 1) // 2 - delta, 0)


@lru_cache(maxsize=None)
def relative_gw(d: int, g: int, lam: Partition, rho: Partition) -> int:
    """Relative invariant: tangency lambda at fixed points, rho at moving ones.

    prod(rho) times the connected sum of mu * nu_{lambda,rho} over the
    diagrams with d - 1 + g edges, from the sweep by inversion.
    """
    if lam.size + rho.size != d:
        raise DiagramError(
            f"|lambda| + |rho| must equal d: {lam.size} + {rho.size} != {d}"
        )
    if g < 0:
        raise DiagramError(f"genus must be nonnegative, got {g}")
    if d < 1:
        raise DiagramError(f"degree must be positive, got {d}")
    return prod(rho.parts) * _connected(d, d - 1 + g, _vector(lam.parts), _vector(rho.parts))


def welschinger(d: int) -> int:
    """Signed count of real rational degree-d curves through 3d-1 real points.

    The connected genus-0 sum of the sweep with each edge weighing 1 when
    its weight is odd and 0 when it is even.
    """
    if d < 1:
        raise DiagramError(f"degree must be positive, got {d}")
    return _connected(d, d - 1, (), (d,), True)
