"""Enumerative invariants assembled from diagrams and markings.

Every invariant is an exact integer: a sum of multiplicity times marking
count over floor diagrams.

Gromov-Witten numbers, Severi degrees and relative invariants come from
one sweep, ``_relative_rows``, that reads marked diagrams in marking
order: each position holds a floor, an edge's midpoint or a sink (the
Fock space reading of Block & Goettsche, IMRN 2016, and Cooper &
Pandharipande, Proc. LMS 2017).  No diagram is built, and one sweep at
degree d gives the sums over every (possibly disconnected) diagram of
every degree up to d, grouped by tangency profile and edge count, for
every profile inside a cap.  It has two readings of one marking.  With
lambda empty and rho = 1^d, the profile of ``gw``, ``severi`` and
``welschinger``, ``_ones_rows`` reads it from the last position back: a
floor emits its incoming edges, an edge gets its source only when it
lands on a floor, and the floor's sinks, which follow it, go among the
items already read at once, so no state carries a sink; any floor after
which no edge is open may be floor 1.  Every other profile is read from
the first position on by ``_forward_rows``: a floor emits its outgoing
edges, an edge gets its target only when it lands on a floor, and any
floor may be the last one.  There each floor spends what is left of its
budget through ``markings.floor_splits``, the split the marking counter
runs.

Every sweep run is kept in ``_SWEEPS`` under one key, (degree, lambda
cap, rho cap, odd), and ``_route`` gives a query the key of the first one
that covers it: degree at least the query's, the same edge weights and
caps at least its profile.  Only a query that none covers gets a key of
its own, and its sweep runs: lambda empty and rho = 1^d, a sweep capped
at it, and every other profile the sweep over all profiles.  Severi
degrees read a row of the key's sweep; the connected sums behind
``relative_gw`` and ``gw`` come from its rows by one inversion over the
component that holds floor 1, which carries the key to every sub-sum.

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

from .core import Partition, as_int, memoize, trim
from .enumeration import DiagramQuery, enumerate_diagrams
# perfbench/tracing.py patches enumerate_diagrams and both marking counters here
from .markings import Vector, check_profile, count_markings, count_relative_markings, floor_splits


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


def _weight(vec: Vector) -> int:
    """I(vec) = sum of k * vec_k."""
    return sum(k * c for k, c in enumerate(vec, start=1))


# -- the marking-order sweep --------------------------------------------------


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
    return tuple((trim(vec), left, num, den) for vec, left, num, den in out)


def _edge_states() -> tuple:
    """The edge half of a sweep's state, which both kernels share: the
    edges by weight whose midpoint is pending and those whose midpoint is
    placed and whose other end is not.  Returns (edge_id, edge_pairs,
    closing, midpoints, taken).

    ``edge_id(pending, placed)`` interns the pair as a small int once per
    sweep, and ``edge_pairs[id]`` gives it back, so a state is a flat tuple
    of ints and the transitions of each id are memoized for the length of
    the sweep.  ``closing[id]`` is the budget of a last floor of the
    forward reading, which absorbs every placed edge: their weight plus
    one, or None while a midpoint is pending.  ``midpoints(id)`` gives
    (next id, ways) for every way the next position holds a pending edge's
    midpoint: one edge of some weight k moved from pending to placed in
    pending_k ways.  ``taken(id)`` gives (id of the rest, weight taken,
    ways) for every sub-vector of the placed edges that a floor takes, in
    prod C(placed_k, t_k) ways.
    """
    edge_ids: dict = {}  # (pending, placed) -> id
    edge_pairs, closing = [], []

    def edge_id(pending: Vector, placed: Vector) -> int:
        key = pending, placed
        if key not in edge_ids:
            edge_ids[key] = len(edge_pairs)
            edge_pairs.append(key)
            closing.append(None if pending else _weight(placed) + 1)
        return edge_ids[key]

    @lru_cache(maxsize=None)
    def midpoints(edges: int) -> tuple:
        pending, placed = edge_pairs[edges]
        out = []
        for k, c in enumerate(pending):
            if c:
                left, moved = list(pending), list(placed) + [0] * len(pending)
                left[k] -= 1
                moved[k] += 1
                out.append((edge_id(trim(left), trim(moved)), c))
        return tuple(out)

    @lru_cache(maxsize=None)
    def taken(edges: int) -> tuple:
        pending, placed = edge_pairs[edges]
        return tuple(
            (edge_id(pending, rest), _weight(sub), ways) for sub, rest, ways in _sub_vectors(placed)
        )

    return edge_id, edge_pairs, closing, midpoints, taken


def _inexact(d: int, divisor: int, rest: int) -> AssertionError:
    return AssertionError(f"degree-{d} sweep: {divisor} leaves {rest} at a floor")


# every sweep run so far, {(degree, lambda cap, rho cap, odd): its rows}, in
# the order they ran: the cache of _relative_rows, which its cache_clear
# empties, and the table _route picks a key from
_SWEEPS: dict = {}


def _relative_rows(d: int, lam_cap: Vector, rho_cap: Vector, odd: bool = False) -> dict:
    """{(lambda, rho): {edge count: sum of mu * nu_{lambda,rho}}} over every
    diagram of degree at most d, connected or not, for every profile
    lambda <= lam_cap, rho <= rho_cap; all are trimmed multiplicity
    vectors, and a profile's degree is its weight I(lambda) + I(rho).  With
    ``odd``, the sum is of the real multiplicity in place of mu.

    The four arguments are the sweep's key in ``_SWEEPS``, which ``_route``
    gives a query, and a key's rows are computed once.  Both kernels read
    marked diagrams in marking order, one position at a time, so a marked
    diagram has no symmetry left; they differ in the end they read from.
    The key (d, (), (d,), odd), lambda empty and rho = 1^d, the ordinary
    and the odd sweep, is read from the last position back by
    ``_ones_rows``: a floor's sinks follow it, so they are placed with it
    and leave the state.  Every other key is read from the first position
    by ``_forward_rows``.  Read from the end, the sweep over all profiles
    costs far more, as its top floors pick large parts first and that
    choice fans out through every later layer; and no odd key has any
    other profile.
    """
    sweep = d, lam_cap, rho_cap, odd
    if sweep not in _SWEEPS:
        if not lam_cap and rho_cap == (d,):
            _SWEEPS[sweep] = _ones_rows(d, odd)
        elif odd:
            raise AssertionError(f"no odd sweep reads the caps {lam_cap}, {rho_cap}")
        else:
            _SWEEPS[sweep] = _forward_rows(d, lam_cap, rho_cap)
    return _SWEEPS[sweep]


def _forward_rows(d: int, lam_cap: Vector, rho_cap: Vector) -> dict:
    """The rows of the sweep key (d, lam_cap, rho_cap, False), read from
    the first position of a marking on.

    A state is (floors placed, the edges by weight whose midpoint is
    pending and those whose midpoint is placed and whose target is not,
    sinks unplaced, the lambda parts and rho parts left).  A position
    holds a pending midpoint, in pending_k ways, an unplaced sink, or the
    next floor.  A floor absorbs some placed edges, in prod C(placed_k,
    t_k) ways, summed into a dict of its own; emits outgoing edges into
    pending, divided by m_w! as the midpoints pick among them later,
    summed into a dict of emissions; and from there spends the rest of its
    budget through ``markings.floor_splits``, whose t! u! it divides by, so
    that the split fans out once per distinct state.  An emission whose
    rest has no split is dropped there.  A last floor joins that dict too.

    Any floor up to the d-th may be the last one, once nothing is
    pending: it absorbs every placed edge and emits nothing.  Its s
    unplaced sinks then fill the next s positions in s! ways, so the
    diagram is final at position n = its position + s: it has
    n - floors - |rho| edges, and it is multiplied by prod lambda_k! for
    the labels of its lambda parts.  The floors' unused budgets add up to
    the floor count, which is the profile's degree.

    The pair (lambda left, rho left) is interned as a small int, as
    ``_edge_states`` interns (pending, placed), so a state is a flat tuple
    of four ints.

    Values are integers scaled by N!, N = d(d-1)/2 + d: midpoints, sinks
    and lambda parts are at most that many disjoint items, so every
    product of parallel-edge, sink and lambda factorials divides it, each
    division is exact (one by 1 is skipped), and a remainder raises
    AssertionError.
    """
    scale = factorial(d * (d - 1) // 2 + d)
    size = max(len(lam_cap), len(rho_cap))
    lam_cap += (0,) * (size - len(lam_cap))
    rho_cap += (0,) * (size - len(rho_cap))
    edge_id, edge_pairs, closing, midpoints, taken = _edge_states()
    part_ids: dict = {}  # (lambda left, rho left) -> id
    part_pairs = []

    def part_id(lam_left: Vector, rho_left: Vector) -> int:
        key = lam_left, rho_left
        if key not in part_ids:
            part_ids[key] = len(part_pairs)
            part_pairs.append(key)
        return part_ids[key]

    @lru_cache(maxsize=None)
    def emit(edges: int, budget: int) -> tuple:
        pending, placed = edge_pairs[edges]
        return tuple(
            (edge_id(pending_next, placed), left, weighs, parallel)
            for pending_next, left, weighs, parallel in _emissions(pending, budget, False)
        )

    @lru_cache(maxsize=None)
    def splits(parts: int, left: int) -> tuple:
        return tuple(
            (part_id(lam_next, rho_next), sunk, symmetry)
            for lam_next, rho_next, sunk, symmetry in floor_splits(left, *part_pairs[parts])
        )

    states = {(0, edge_id((), ()), 0, part_id(lam_cap, rho_cap)): scale}
    finals: dict = {}
    position = 0
    while states:
        position += 1
        moved, absorbed, emitted = {}, {}, {}
        for state, value in states.items():
            floors, edges, sinks, parts = state
            for edges_next, ways in midpoints(edges):
                key = (floors, edges_next, sinks, parts)
                moved[key] = moved.get(key, 0) + value * ways
            if sinks:
                key = (floors, edges, sinks - 1, parts)
                moved[key] = moved.get(key, 0) + value * sinks
            if floors < d - 1:
                for rest, weight, ways in taken(edges):
                    key = (floors, rest, sinks, parts, weight)
                    absorbed[key] = absorbed.get(key, 0) + value * ways
            budget = closing[edges]
            if budget is not None:
                # a last floor, marked by edges None
                key = (floors + 1, None, sinks, parts, budget)
                emitted[key] = emitted.get(key, 0) + value
        for (floors, edges, sinks, parts, weight), value in absorbed.items():
            for edges_next, left, weighs, parallel in emit(edges, weight + 1):
                share = value * weighs
                if parallel != 1:
                    share, rest = divmod(share, parallel)
                    if rest:
                        raise _inexact(d, parallel, rest)
                key = (floors + 1, edges_next, sinks, parts, left)
                emitted[key] = emitted.get(key, 0) + share
        for (floors, edges, sinks, parts, left), value in emitted.items():
            for parts_next, sunk, symmetry in splits(parts, left):
                share = value
                if symmetry != 1:
                    share, rest = divmod(value, symmetry)
                    if rest:
                        raise _inexact(d, symmetry, rest)
                if edges is None:
                    # the sinks fill the next positions, in (sinks + sunk)! ways
                    last = position + sinks + sunk
                    values = finals.setdefault((floors, parts_next), {})
                    values[last] = values.get(last, 0) + share * factorial(sinks + sunk)
                else:
                    key = (floors, edges, sinks + sunk, parts_next)
                    moved[key] = moved.get(key, 0) + share
        states = moved
    rows = {}
    for (floors, parts), values in finals.items():
        lam_left, rho_left = part_pairs[parts]
        lam = trim(c - r for c, r in zip(lam_cap, lam_left))
        rho = trim(c - r for c, r in zip(rho_cap, rho_left))
        if _weight(lam) + _weight(rho) != floors:
            raise AssertionError(
                f"degree-{d} sweep closes {floors} floors on parts of another weight: "
                f"lambda {lam}, rho {rho}"
            )
        row = rows[lam, rho] = {}
        for position, value in values.items():
            edges = position - floors - sum(rho)
            row[edges], rest = divmod(value * prod(map(factorial, lam)), scale)
            if rest:
                raise AssertionError(f"degree-{d} sweep: {scale} leaves {rest} at {lam, rho}")
    return rows


def _ones_rows(d: int, odd: bool) -> dict:
    """The rows of the sweep key (d, (), (d,), odd), lambda empty and
    rho = 1^d: {((), (f,)): {edge count: sum of mu * nu}} for every f <= d.

    The sweep reads a marking from its last position back, one position a
    layer, where layer t has read t items.  A state is (floors read, the
    edges by weight whose target is read and whose midpoint is pending,
    and those whose midpoint is read and whose source is not).  A position
    holds a pending midpoint, in pending_k ways, or the next floor down.
    A floor takes its outgoing edges among the placed ones, in
    prod C(placed_k, t_k) ways, summed into a dict of its own by
    (floors, the rest, their weight out); then emits its incoming edges
    into pending, divided by m_w! as the midpoints pick among them later.
    Its sinks are the budget it leaves, s = 1 + in - out: they follow it,
    so they go anywhere among the t items read, in C(t + s, s) ways, and
    the floor's state lands in layer t + s + 1.  So no state carries a
    sink, which the forward reading must carry until it places it.

    The floors read and the edges open below them, floors + W(pending +
    placed), are the sinks read so far, and the sweep keeps that at most
    d: an emission is taken only if its s fits in the room that leaves.
    A floor after which nothing is open may be floor 1: the diagram is
    final, with f floors, f sinks and n - 2f edges at n = t + s + 1; and
    while f < d the reading also goes on below it, to another component.

    Values are integers scaled by N!, N = d(d-1)/2 + d, as in
    ``_forward_rows``: the only divisors are the parallel-edge factorials,
    each division is checked (one by 1 is skipped), and so is the last one,
    by N!; a remainder raises AssertionError.  ``odd`` weighs the edges as
    ``_emissions`` does.
    """
    scale = factorial(d * (d - 1) // 2 + d)
    edge_id, edge_pairs, _, midpoints, taken = _edge_states()

    @lru_cache(maxsize=None)
    def incoming(edges: int, out: int, floors: int) -> tuple:
        # the sinks read stay at most d, so the floor has room for that many
        # more; an emission of weight in leaves it s = 1 + in - out sinks and
        # spare budget out - 1 + room - in = room - s, so 0 <= s <= room
        pending, placed = edge_pairs[edges]
        room = d - floors - _weight(pending) - _weight(placed) - out
        budget = out - 1 + room
        if budget < 0:
            return ()
        return tuple(
            (edge_id(pending_next, placed), room - spare, weighs, parallel)
            for pending_next, spare, weighs, parallel in _emissions(pending, budget, odd)
            if spare <= room
        )

    empty = edge_id((), ())
    # layer t holds the states t items in: at most d floors, d sinks and
    # N - d midpoints, and one layer more for the last one's midpoints
    layers = [{} for _ in range(d * (d + 3) // 2 + 2)]
    layers[0][0, empty] = scale
    finals: dict = {}
    for t in range(len(layers) - 1):
        states, layers[t] = layers[t], None
        absorbed, moved = {}, layers[t + 1]
        for (floors, edges), value in states.items():
            for edges_next, ways in midpoints(edges):
                key = floors, edges_next
                moved[key] = moved.get(key, 0) + value * ways
            for rest, out, ways in taken(edges):
                key = floors, rest, out
                absorbed[key] = absorbed.get(key, 0) + value * ways
        for (floors, rest, out), value in absorbed.items():
            for edges_next, sinks, weighs, parallel in incoming(rest, out, floors):
                share = value * weighs
                if parallel != 1:
                    share, left = divmod(share, parallel)
                    if left:
                        raise _inexact(d, parallel, left)
                if sinks:
                    share *= comb(t + sinks, sinks)
                last = t + sinks + 1
                if edges_next == empty:
                    # floor 1, or a floor with no edge down to the next one
                    finals[floors + 1, last] = finals.get((floors + 1, last), 0) + share
                    if floors + 1 == d:
                        continue
                landed = layers[last]
                key = floors + 1, edges_next
                landed[key] = landed.get(key, 0) + share
    rows: dict = {}
    for (floors, n), value in sorted(finals.items()):
        row = rows.setdefault(((), (floors,)), {})
        row[n - 2 * floors], left = divmod(value, scale)
        if left:
            raise AssertionError(f"degree-{d} sweep: {scale} leaves {left} at {(), (floors,)}")
    return rows


_relative_rows.cache_clear = _SWEEPS.clear


def _within(vec: Vector, cap: Vector) -> bool:
    """True if every component of ``vec`` is at most that of ``cap``."""
    return len(vec) <= len(cap) and all(map(int.__le__, vec, cap))


def _route(d: int, lam: Vector, rho: Vector, odd: bool = False) -> tuple:
    """The key in ``_SWEEPS``, (degree, lambda cap, rho cap, odd), of the
    sweep that a degree-d query with profile (lam, rho) reads, for its own
    row and every sub-row of its inversion.

    A sweep holds the row of every profile inside its caps at every degree
    up to its own, so the query takes the first sweep run with degree at
    least d, the same ``odd`` and caps at least lam and rho, component by
    component; a grid of profiles, or a table of degrees read top degree
    first, costs one sweep.  Only when none covers it does the key name a
    new sweep, the one the query picks alone: lambda empty and rho = 1^d,
    the profile of ``gw`` and ``severi``, a sweep capped at it, and every
    other profile the sweep over all profiles of degree at most d.
    """
    for sweep in _SWEEPS:
        top, lam_cap, rho_cap, swept_odd = sweep
        if top >= d and swept_odd == odd and _within(lam, lam_cap) and _within(rho, rho_cap):
            return sweep
    if not lam and rho == (d,):
        return d, (), rho, odd
    full = tuple(d // k for k in range(1, d + 1))
    return d, full, full, odd


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
    return tuple((trim(sub), trim(rest), ways) for sub, rest, ways in out)


@lru_cache(maxsize=None)
def _connected(d: int, edges: int, lam: Vector, rho: Vector, sweep: tuple | None = None) -> int:
    """Sum of mu * nu_{lambda,rho} over the connected degree-d diagrams
    with ``edges`` edges, read off the sweep whose ``_SWEEPS`` key is
    ``sweep``, by default the one ``_route`` gives the query; with an odd
    key, of the real multiplicity in place of mu.

    A marked diagram splits into marked components and a shuffle of their
    n items (d floors, the edges' midpoints and one sink per rho part),
    and floor 1 comes first in every marking.  So the row value is this
    sum plus, for every component that holds floor 1 with degree d1 < d,
    C(n-1, n1-1) ways to choose its other items' positions, times
    C(lambda, lambda1) for its lambda indices, times its connected sum,
    times the row value of the rest.  With lambda empty and rho = 1^d this
    is the splitting formula for Severi degrees, with n the number of
    points.  Every sub-profile lies inside the caps of a sweep that covers
    the query, at a lower degree, so the key is carried to every sub-sum
    and the whole inversion reads that one sweep's rows.
    """
    sweep = sweep or _route(d, lam, rho)
    rows = _relative_rows(*sweep)
    total = rows.get((lam, rho), {}).get(edges, 0)
    n = d + edges + sum(rho)
    for lam1, lam2, lam_ways in _sub_vectors(lam):
        for rho1, rho2, _ in _sub_vectors(rho):
            d1 = _weight(lam1) + _weight(rho1)
            if not 0 < d1 < d:
                continue
            rest = rows.get((lam2, rho2), {})
            for e1 in range(d1 - 1, d1 * (d1 - 1) // 2 + 1):
                other = rest.get(edges - e1)
                if other:
                    n1 = d1 + e1 + sum(rho1)
                    part = _connected(d1, e1, lam1, rho1, sweep)
                    total -= comb(n - 1, n1 - 1) * lam_ways * part * other
    return total


# -- the invariants -----------------------------------------------------------


@memoize
def gw(d: int, g: int) -> int:
    """Count of irreducible degree-d genus-g plane curves through 3d+g-1 points.

    The relative invariant with lambda empty and rho = 1^d: the connected
    sum of the sweep, 0 past the maximal genus (d-1)(d-2)/2.
    """
    d, g = as_int(d, "degree", 1), as_int(g, "genus", 0)
    return relative_gw(d, g, Partition(()), Partition.ones(d))


@memoize  # the row is memoized too; perfbench's warm pass clears this
def severi(d: int, delta: int) -> int:
    """Count of possibly reducible delta-nodal degree-d curves.

    Reads one entry of the degree's sweep row with lambda empty and
    rho = 1^d: all (possibly disconnected) diagrams of cogenus delta have
    d(d-1)/2 - delta edges, and the floor chain and the markings are
    global across components.
    """
    d, delta = as_int(d, "degree", 1), as_int(delta, "cogenus", 0)
    rows = _relative_rows(*_route(d, (), (d,)))
    return rows.get(((), (d,)), {}).get(d * (d - 1) // 2 - delta, 0)


@memoize
def relative_gw(d: int, g: int, lam: Partition, rho: Partition) -> int:
    """Relative invariant: tangency lambda at fixed points, rho at moving ones.

    prod(rho) times the connected sum of mu * nu_{lambda,rho} over the
    diagrams with d - 1 + g edges, from the sweep by inversion.
    """
    d, g = as_int(d, "degree", 1), as_int(g, "genus", 0)
    check_profile(d, lam, rho)
    return prod(rho.parts) * _connected(d, d - 1 + g, _vector(lam.parts), _vector(rho.parts))


def welschinger(d: int) -> int:
    """Signed count of real rational degree-d curves through 3d-1 real points.

    The connected genus-0 sum of the sweep with each edge weighing 1 when
    its weight is odd and 0 when it is even.
    """
    d = as_int(d, "degree", 1)
    return _connected(d, d - 1, (), (d,), _route(d, (), (d,), True))
