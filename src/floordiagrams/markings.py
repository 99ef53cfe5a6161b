"""Counting markings of labeled floor diagrams.

A marking decorates a diagram with sink vertices (one per unit of unused
divergence budget, weighted by the partition rho), optional tangency
vertices fed by single edges whose weights form lambda, and a midpoint on
every original edge, then linearly orders everything compatibly with the
floor chain.  Markings are counted modulo automorphisms that fix the
floors, which on this structure means: permutations of equal-weight sinks
at the same floor and of midpoints of parallel equal-weight edges.

Orderings are counted by a polynomial-time DP over the gaps of the floor
chain.  ``list_markings`` lists one linear order per orbit explicitly,
for small diagrams: the one whose interchangeable copies appear in copy
order.  ``oracles`` holds the independent counters the DP and the listing
are tested against.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import comb, factorial, prod

from .core import DiagramError, FloorDiagram, Partition, Value

BRUTE_FORCE_LIMIT = 14


class Distribution(Value):
    """Placement of the new edges of a (lambda, rho)-marking.

    lambda_sources[i] is the floor emitting the single weight-lambda_i edge
    to the i-th tangency vertex; rho_sinks[v-1] is the sorted multiset of
    sink weights hanging from floor v.
    """

    __slots__ = ("lambda_sources", "rho_sinks")


class MarkingPoset(Value):
    """Derived ordered structure whose constrained linear orders are counted.

    Element inventory: floors 1..d (pinned in order), one midpoint per
    original edge, sinks per the distribution, and lambda vertices pinned
    to the top positions.  ``symmetry`` is the order of the automorphism
    group fixing the floors.
    """

    __slots__ = (
        "d",
        "midpoints",  # (src, tgt, weight, copy)
        "sinks",  # (floor, weight, copy)
        "lambda_vertices",  # (index, source floor, weight)
        "symmetry",
    )

    @property
    def element_count(self) -> int:
        return self.d + len(self.midpoints) + len(self.sinks) + len(self.lambda_vertices)

    def windows(self) -> tuple[tuple[int, int], ...]:
        """Admissible gap interval for each non-floor, non-lambda element.

        Gap j sits between floor j and floor j+1 (gap d is after floor d).
        A midpoint of edge (s, t) may occupy gaps s..t-1; a sink of floor v
        may occupy gaps v..d.
        """
        wins = [(s, t - 1) for s, t, _, _ in self.midpoints]
        wins += [(v, self.d) for v, _, _ in self.sinks]
        return tuple(sorted(wins))

    def element_labels(self) -> tuple[str, ...]:
        labels = [f"v{v}" for v in range(1, self.d + 1)]
        labels += [f"e{s}-{t}w{w}#{c}" for s, t, w, c in self.midpoints]
        labels += [f"s{v}w{w}#{c}" for v, w, c in self.sinks]
        labels += [f"L{i}" for i, _, _ in self.lambda_vertices]
        return tuple(labels)


def _budgets(diag: FloorDiagram) -> list[int]:
    return [1 - dv for dv in diag.divergences()]


def enumerate_distributions(diag: FloorDiagram, lam: Partition, rho: Partition):
    """Yield every distribution of new edges, each exactly once.

    Sink placements are multisets per floor; the assignment of lambda
    indices to source floors is ordered (feeding a different tangency
    vertex is a different distribution).  Emission order is lexicographic
    on (lambda_sources, per-floor sink multisets).
    """
    d = diag.d
    if lam.size + rho.size != d:
        raise DiagramError(
            f"|lambda| + |rho| must equal d: {lam.size} + {rho.size} != {d}"
        )
    budgets = _budgets(diag)

    def assign_lambda(i: int, remaining: list[int], chosen: list[int]):
        if i == lam.length:
            yield tuple(chosen), tuple(remaining)
            return
        for v in range(1, d + 1):
            if remaining[v - 1] >= lam.parts[i]:
                remaining[v - 1] -= lam.parts[i]
                chosen.append(v)
                yield from assign_lambda(i + 1, remaining, chosen)
                chosen.pop()
                remaining[v - 1] += lam.parts[i]

    def sink_splits(v: int, pool: Counter, residual: tuple[int, ...], acc: list):
        if v > d:
            if not +pool:
                yield tuple(acc)
            return
        need = residual[v - 1]
        parts = sorted(+pool)

        def pick(idx: int, left: int, take: list[int]):
            if left == 0:
                for p in take:
                    pool[p] -= 1
                acc.append(tuple(sorted(take)))
                yield from sink_splits(v + 1, pool, residual, acc)
                acc.pop()
                for p in take:
                    pool[p] += 1
                return
            if idx == len(parts) or parts[idx] > left:
                return
            p = parts[idx]
            avail = pool[p] - sum(1 for q in take if q == p)
            if avail > 0:
                take.append(p)
                yield from pick(idx, left - p, take)
                take.pop()
            yield from pick(idx + 1, left, take)

        yield from pick(0, need, [])

    for sources, residual in assign_lambda(0, list(budgets), []):
        pool = Counter(rho.parts)
        for sinks in sink_splits(1, pool, residual, []):
            yield Distribution(sources, sinks)


def build_poset(diag: FloorDiagram, dist: Distribution, lam: Partition) -> MarkingPoset:
    """Assemble the marking poset for one distribution."""
    mid_counts: Counter = Counter()
    midpoints = []
    for s, t, w in diag.edges:
        midpoints.append((s, t, w, mid_counts[(s, t, w)]))
        mid_counts[(s, t, w)] += 1
    sink_counts: Counter = Counter()
    sinks = []
    for v, weights in enumerate(dist.rho_sinks, start=1):
        for w in weights:
            sinks.append((v, w, sink_counts[(v, w)]))
            sink_counts[(v, w)] += 1
    lam_vertices = tuple(
        (i + 1, dist.lambda_sources[i], lam.parts[i]) for i in range(lam.length)
    )
    symmetry = prod(factorial(c) for c in mid_counts.values()) * prod(
        factorial(c) for c in sink_counts.values()
    )
    return MarkingPoset(diag.d, tuple(midpoints), tuple(sinks), lam_vertices, symmetry)


# -- ordering counters ----------------------------------------------------


@lru_cache(maxsize=None)
def gap_choices(mandatory: int, counts: tuple[int, ...]) -> tuple:
    """The transfer of one gap: every way to fill it from pending classes.

    ``mandatory`` items must be placed in this gap; from a class of c
    interchangeable pending items any k may join them, in C(c, k) ways.
    Returns (counts left per class, ways) pairs, where ways also counts
    the (gap size)! arrangements of the distinguishable items in the gap.
    """
    out = []

    def choose(idx: int, taken: int, mult: int, rest: list):
        if idx == len(counts):
            out.append((tuple(rest), mult * factorial(mandatory + taken)))
            return
        c = counts[idx]
        for k in range(c + 1):
            rest.append(c - k)
            choose(idx + 1, taken + k, mult * comb(c, k), rest)
            rest.pop()

    choose(0, 0, 1, [])
    return tuple(out)


@lru_cache(maxsize=200_000)
def _gap_dp(d: int, windows: tuple[tuple[int, int], ...]) -> int:
    """Number of linear orders: items assigned to gaps within their windows,
    summed over assignments with a factorial per within-gap arrangement.

    DP over gaps; multi-gap items pending in the state are keyed only by
    their deadline gap (items of equal deadline are interchangeable, which
    the binomial factors account for).  Each gap is one ``gap_choices``
    transfer.
    """
    forced = [0] * (d + 1)
    arrivals: dict[int, list[int]] = {}
    for lo, hi in windows:
        if lo == hi:
            forced[lo] += 1
        else:
            arrivals.setdefault(lo, []).append(hi)

    states: dict[tuple[tuple[int, int], ...], int] = {(): 1}
    for j in range(1, d + 1):
        new_states: dict[tuple[tuple[int, int], ...], int] = {}
        arriving = arrivals.get(j, ())
        for pend, coeff in states.items():
            pools = Counter(dict(pend))
            for h in arriving:
                pools[h] += 1
            mandatory = pools.pop(j, 0) + forced[j]
            deadlines = sorted(pools)
            counts = tuple(pools[h] for h in deadlines)
            for rest, ways in gap_choices(mandatory, counts):
                key = tuple((h, c) for h, c in zip(deadlines, rest) if c)
                new_states[key] = new_states.get(key, 0) + coeff * ways
        states = new_states
    if set(states) - {()}:
        raise AssertionError(f"items left pending past gap {d}: {sorted(states)}")
    return states.get((), 0)


def count_orderings(poset: MarkingPoset) -> int:
    """Linear extensions of the marking poset, all elements distinguishable,
    lambda vertices pinned to the top block in their fixed order."""
    return _gap_dp(poset.d, poset.windows())


def count_relative_markings(diag: FloorDiagram, lam: Partition, rho: Partition) -> int:
    """nu_{lambda,rho}: sum over distributions of orderings / symmetry."""
    total = 0
    for dist in enumerate_distributions(diag, lam, rho):
        poset = build_poset(diag, dist, lam)
        raw = count_orderings(poset)
        if raw % poset.symmetry:
            raise AssertionError(
                f"symmetry {poset.symmetry} does not divide ordering count {raw}"
            )
        total += raw // poset.symmetry
    return total


def count_markings(diag: FloorDiagram) -> int:
    """nu: ordinary marking count (lambda empty, rho all ones)."""
    return count_relative_markings(diag, Partition(()), Partition.ones(diag.d))


# -- explicit listing -----------------------------------------------------


def _poset_elements(poset: MarkingPoset):
    """Element ids, in the order of ``poset.element_labels()``, plus strict
    order constraints (a must precede b)."""
    floors = [("F", v) for v in range(1, poset.d + 1)]
    mids = [("M", s, t, w, c) for s, t, w, c in poset.midpoints]
    sinks = [("S", v, w, c) for v, w, c in poset.sinks]
    lams = [("L", i) for i, _, _ in poset.lambda_vertices]
    elements = floors + mids + sinks + lams
    constraints = []
    for v in range(1, poset.d):
        constraints.append((("F", v), ("F", v + 1)))
    for s, t, w, c in poset.midpoints:
        constraints.append((("F", s), ("M", s, t, w, c)))
        constraints.append((("M", s, t, w, c), ("F", t)))
    for v, w, c in poset.sinks:
        constraints.append((("F", v), ("S", v, w, c)))
    non_lambda = floors + mids + sinks
    for i, _, _ in poset.lambda_vertices:
        for e in non_lambda:
            constraints.append((e, ("L", i)))
    for (i, _, _), (j, _, _) in zip(poset.lambda_vertices, poset.lambda_vertices[1:]):
        constraints.append((("L", j), ("L", i)))  # v_1 is maximal, v_2 next, ...
    return elements, constraints


def _linear_extensions(elements, constraints):
    succ: dict = {e: set() for e in elements}
    indeg: dict = {e: 0 for e in elements}
    for a, b in constraints:
        if b not in succ[a]:
            succ[a].add(b)
            indeg[b] += 1
    order: list = []

    def rec():
        if len(order) == len(elements):
            yield tuple(order)
            return
        for e in elements:
            if indeg[e] == 0 and e not in placed:
                placed.add(e)
                order.append(e)
                for s in succ[e]:
                    indeg[s] -= 1
                yield from rec()
                for s in succ[e]:
                    indeg[s] += 1
                order.pop()
                placed.discard(e)

    placed: set = set()
    yield from rec()


def check_listing_size(n_elements: int) -> None:
    """Refuse to list the markings of a poset above BRUTE_FORCE_LIMIT elements."""
    if n_elements > BRUTE_FORCE_LIMIT:
        raise DiagramError(
            f"marking listing limited to {BRUTE_FORCE_LIMIT} elements, got {n_elements}"
        )


def list_markings(diag: FloorDiagram, lam: Partition, rho: Partition) -> list[tuple[str, ...]]:
    """Canonical representatives of every marking, as label sequences.

    The automorphisms fixing the floors permute interchangeable copies, so
    each orbit holds exactly one linear order in which the copies of every
    class appear in copy order; chaining copy c-1 before copy c lists that
    one.  Intended for small-d inspection, gallery rendering and the CLI
    --list flag; posets above BRUTE_FORCE_LIMIT elements are refused.
    """
    check_listing_size(diag.d + len(diag.edges) + lam.length + rho.length)
    reps: list[tuple[str, ...]] = []
    for dist in enumerate_distributions(diag, lam, rho):
        poset = build_poset(diag, dist, lam)
        elements, constraints = _poset_elements(poset)
        label = dict(zip(elements, poset.element_labels()))
        constraints += [
            (e[:-1] + (e[-1] - 1,), e) for e in elements if e[0] in "MS" and e[-1]
        ]
        for ext in sorted(_linear_extensions(elements, constraints)):
            reps.append(tuple(label[e] for e in ext))
    return reps
