"""Enumerative invariants assembled from diagrams and markings.

Every invariant is an exact integer: a sum of multiplicity times marking
count over floor diagrams.

Gromov-Witten numbers, Severi degrees and relative invariants come from
one sweep, ``_relative_rows``, that reads marked diagrams in marking
order: each position holds the next floor, an edge's midpoint or a sink,
and an edge gets its target only when it lands on a floor (the Fock space
reading of Block & Goettsche, IMRN 2016, and Cooper & Pandharipande,
Proc. LMS 2017).  No diagram is built, and one sweep gives the sums over
every (possibly disconnected) diagram of a degree, grouped by tangency
profile and edge count, for every profile inside a cap.  ``_row`` picks
the cap: lambda empty and rho = 1^d, the profile of ``gw`` and
``severi``, has a sweep of its own, and every other profile reads the
sweep over all profiles of its degree.  Severi degrees read a row; the
connected sums behind ``relative_gw`` and ``gw`` come from the rows by
one inversion over the component that holds floor 1.

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

from .core import DiagramError, Partition
from .enumeration import DiagramQuery, enumerate_diagrams
# perfbench/tracing.py patches enumerate_diagrams and both marking counters here
from .markings import count_markings, count_relative_markings

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


# -- the marking-order sweep --------------------------------------------------


@lru_cache(maxsize=None)
def _midpoints(pending: Vector, placed: Vector) -> tuple:
    """Every way the next position holds a pending edge's midpoint:
    (pending, placed, ways), one edge of some weight k moved from pending
    to placed in pending_k ways."""
    out = []
    for k, c in enumerate(pending):
        if c:
            left, moved = list(pending), list(placed) + [0] * len(pending)
            left[k] -= 1
            moved[k] += 1
            out.append((_trim(left), _trim(moved), c))
    return tuple(out)


@lru_cache(maxsize=None)
def _emissions(pending: Vector, budget: int, odd: bool) -> tuple:
    """Every multiset of outgoing edges, m_w of weight w, that a floor
    with ``budget`` may emit: (pending plus m, budget left,
    prod w^(2 m_w), prod m_w!).  With ``odd``, each edge weighs w mod 2
    in place of w^2, so a multiset with an even weight is dropped."""
    pending += (0,) * (budget - len(pending))
    out = [((), budget, 1, 1)]
    for w, c in enumerate(pending, start=1):
        weigh = w % 2 if odd else w * w
        out = [
            (vec + (c + m,), left - w * m, num * weigh**m, den * factorial(m))
            for vec, left, num, den in out
            for m in range(left // w + 1)
            if weigh or not m
        ]
    return tuple((_trim(vec), left, num, den) for vec, left, num, den in out)


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

    The sweep reads a marking one position at a time, breadth-first, so a
    marked diagram has no symmetry left.  A state is (floors placed,
    edges by weight whose midpoint is pending, edges by weight whose
    midpoint is placed and whose target is not, sinks unplaced, lambda
    parts left, rho parts left).  A position holds a pending midpoint, in
    pending_k ways, an unplaced sink, or the next floor.  A floor, in
    three phases summed into dicts of their own, absorbs some placed
    edges, in prod C(placed_k, t_k) ways; emits outgoing edges into
    pending, divided by m_w! as the midpoints pick among them later; and
    spends the rest of its budget through ``_leftover_splits``.  The last
    floor absorbs every placed edge and emits nothing.  A state with
    every floor and sink placed is final: at position n it has
    n - d - |rho| edges, and it is multiplied by prod lambda_k! for the
    labels of its lambda parts.

    Values are integers scaled by N!, N = d(d-1)/2 + d: midpoints, sinks
    and lambda parts are at most that many disjoint items, so every
    product of parallel-edge, sink and lambda factorials divides it, each
    division is exact, and a remainder raises AssertionError.  ``odd``
    weighs the edges as ``_emissions`` does.
    """
    scale = factorial(d * (d - 1) // 2 + d)
    size = max(len(lam_cap), len(rho_cap))
    lam_cap += (0,) * (size - len(lam_cap))
    rho_cap += (0,) * (size - len(rho_cap))
    states = {(0, (), (), 0, lam_cap, rho_cap): scale}
    finals: dict = {}
    position = 0
    while states:
        position += 1
        moved, absorbed, emitted = {}, {}, {}
        for state, value in states.items():
            floors, pending, placed, sinks, lam_left, rho_left = state
            for pending_next, placed_next, ways in _midpoints(pending, placed):
                key = (floors, pending_next, placed_next, sinks, lam_left, rho_left)
                moved[key] = moved.get(key, 0) + value * ways
            if sinks:
                key = (floors, pending, placed, sinks - 1, lam_left, rho_left)
                moved[key] = moved.get(key, 0) + value * sinks
            if floors < d - 1:
                for taken, rest, ways in _sub_vectors(placed):
                    key = (floors, pending, rest, sinks, lam_left, rho_left, _weight(taken) + 1)
                    absorbed[key] = absorbed.get(key, 0) + value * ways
            elif floors == d - 1 and not pending:
                key = (d, (), (), sinks, lam_left, rho_left, _weight(placed) + 1)
                emitted[key] = emitted.get(key, 0) + value
        for (floors, pending, placed, *parts, budget), value in absorbed.items():
            for pending_next, left, weighs, parallel in _emissions(pending, budget, odd):
                share, rest = divmod(value * weighs, parallel)
                if rest:
                    raise AssertionError(f"degree-{d} sweep: {parallel} leaves {rest} at a floor")
                key = (floors + 1, pending_next, placed, *parts, left)
                emitted[key] = emitted.get(key, 0) + share
        for (floors, pending, placed, sinks, lam_left, rho_left, left), value in emitted.items():
            for lam_next, rho_next, sunk, symmetry in _leftover_splits(left, lam_left, rho_left):
                share, rest = divmod(value, symmetry)
                if rest:
                    raise AssertionError(f"degree-{d} sweep: {symmetry} leaves {rest} at a floor")
                key = (floors, pending, placed, sinks + sunk, lam_next, rho_next)
                moved[key] = moved.get(key, 0) + share
        states = {}
        for state, value in moved.items():
            if state[0] < d or state[3]:
                states[state] = value
            else:
                finals.setdefault(state[4:], {})[position] = value
    rows = {}
    for (lam_left, rho_left), values in finals.items():
        lam = _trim(c - r for c, r in zip(lam_cap, lam_left))
        rho = _trim(c - r for c, r in zip(rho_cap, rho_left))
        # the floors' unused budgets add up to d
        if _weight(lam) + _weight(rho) != d:
            raise AssertionError(
                f"degree-{d} sweep uses parts of weight other than {d}: lambda {lam}, rho {rho}"
            )
        row = rows[lam, rho] = {}
        for position, value in values.items():
            edges = position - d - sum(rho)
            row[edges], rest = divmod(value * prod(map(factorial, lam)), scale)
            if rest:
                raise AssertionError(f"degree-{d} sweep: {scale} leaves {rest} at {lam, rho}")
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
