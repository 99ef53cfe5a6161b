"""Counting markings of labeled floor diagrams.

A marking decorates a diagram with sink vertices (one per unit of unused
divergence budget, weighted by the partition rho), optional tangency
vertices fed by single edges whose weights form lambda, and a midpoint on
every original edge, then linearly orders everything compatibly with the
floor chain.  Markings are counted modulo automorphisms that fix the
floors, which on this structure means: permutations of equal-weight sinks
at the same floor and of midpoints of parallel equal-weight edges.

Each floor spends its unused budget exactly on lambda parts and rho
sinks, by ``floor_splits``, which the relative sweep in ``invariants``
reads too.  A floor plan, what every floor takes, stands for prod
lambda_k! / prod t! distributions that differ only in which floor feeds
which tangency vertex and share one poset, so the count orders it once.

Orderings are counted by a polynomial-time DP over the gaps of the floor
chain.  ``list_markings`` lists one linear order per orbit explicitly,
for small diagrams: the one whose interchangeable copies appear in copy
order.  ``oracles`` holds the independent counters the DP and the listing
are tested against.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from heapq import merge
from math import comb, factorial, prod

from .core import DiagramError, FloorDiagram, Partition, Value

BRUTE_FORCE_LIMIT = 14

Vector = tuple[int, ...]  # multiplicity vector: entry k-1 counts the parts equal to k


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
        labels += [f"L{i}@v{src}" for i, src, _ in self.lambda_vertices]  # fed by floor src
        return tuple(labels)


def check_profile(d: int, lam: Partition, rho: Partition) -> None:
    """Refuse a tangency profile whose sizes do not add up to the degree."""
    if lam.size + rho.size != d:
        raise DiagramError(f"|lambda| + |rho| must equal d: {lam.size} + {rho.size} != {d}")


def floor_splits(left: int, lam: Vector, rho: Vector) -> tuple:
    """Every way a floor spends ``left`` units of unused budget on the
    lambda parts and rho sinks still unused; ``lam`` and ``rho`` are
    multiplicity vectors of one length.

    Each way is (lambda left, rho left, t, u, sinks placed, t! u!): the
    floor takes t_k lambda parts and u_k sinks of size k, so it places
    sum(u) sinks, and its t_k parts and u_k sinks of one size are each
    interchangeable, which t! u! = prod t_k! u_k! counts.
    """
    out = []

    def split(k: int, left: int, lam_left: tuple, rho_left: tuple, t: tuple, u: tuple,
              placed: int, symmetry: int):
        if not left:
            zeros = (0,) * (len(lam) - k + 1)
            out.append((lam_left + lam[k - 1:], rho_left + rho[k - 1:], t + zeros, u + zeros,
                        placed, symmetry))
            return
        if k > min(left, len(lam)):  # parts of size k and up cannot spend what is left
            return
        r, q = lam[k - 1], rho[k - 1]
        for tk in range(min(r, left // k) + 1):
            for uk in range(min(q, left // k - tk) + 1):
                split(k + 1, left - k * (tk + uk), lam_left + (r - tk,), rho_left + (q - uk,),
                      t + (tk,), u + (uk,), placed + uk, symmetry * factorial(tk) * factorial(uk))

    split(1, left, (), (), (), (), 0, 1)
    return tuple(out)


def _floor_plans(diag: FloorDiagram, lam: Partition, rho: Partition):
    """Every floor plan, as (t per floor, sinks per floor), from one pass
    over the budgets 1 - divergence; they add up to |lambda| + |rho| = d,
    so a plan that reaches floor d has used every part."""
    check_profile(diag.d, lam, rho)
    size = max(lam.parts + rho.parts)
    budgets = [1 - dv for dv in diag.divergences()]
    lam_vec, rho_vec = (tuple(p.parts.count(k) for k in range(1, size + 1)) for p in (lam, rho))
    stack = [((), (), lam_vec, rho_vec)]
    while stack:
        taken, sinks, lam_left, rho_left = stack.pop()
        if len(taken) == diag.d:
            yield taken, sinks
            continue
        splits = floor_splits(budgets[len(taken)], lam_left, rho_left)
        for lam_next, rho_next, t, u, _, _ in splits:
            sunk = tuple(k for k, c in enumerate(u, start=1) for _ in range(c))
            stack.append((taken + (t,), sinks + (sunk,), lam_next, rho_next))


def _spread(taken: tuple, sinks: tuple, lam: Partition):
    """Every distribution with these sinks whose lambda_sources give floor
    v taken[v-1][k-1] of the lambda parts of size k, in lexicographic order."""
    room = [list(t) for t in taken]
    sources: list[int] = []

    def place(i: int):
        if i == lam.length:
            yield Distribution(tuple(sources), sinks)
            return
        k = lam.parts[i] - 1
        for v, left in enumerate(room, start=1):
            if left[k]:
                left[k] -= 1
                sources.append(v)
                yield from place(i + 1)
                sources.pop()
                left[k] += 1

    return place(0)


def enumerate_distributions(diag: FloorDiagram, lam: Partition, rho: Partition):
    """Yield every distribution of new edges, each exactly once.

    Sink placements are multisets per floor; the assignment of lambda
    indices to source floors is ordered (feeding a different tangency
    vertex is a different distribution).  The floor plans' streams are
    merged in lexicographic order on (lambda_sources, per-floor sinks).
    """
    yield from merge(
        *(_spread(taken, sinks, lam) for taken, sinks in _floor_plans(diag, lam, rho)),
        key=lambda dist: (dist.lambda_sources, dist.rho_sinks),
    )


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
    lam_vertices = tuple(zip(range(1, lam.length + 1), dist.lambda_sources, lam.parts))
    symmetry = prod(map(factorial, [*mid_counts.values(), *sink_counts.values()]))
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
    """nu_{lambda,rho}: per floor plan, orderings / symmetry of one of its
    distributions, times their number prod lambda_k! / prod t!."""
    labels = prod(factorial(lam.count(k)) for k in set(lam.parts))
    total = 0
    for taken, sinks in _floor_plans(diag, lam, rho):
        poset = build_poset(diag, next(_spread(taken, sinks, lam)), lam)
        raw = count_orderings(poset)
        if raw % poset.symmetry:
            raise AssertionError(f"symmetry {poset.symmetry} does not divide ordering count {raw}")
        total += labels // prod(factorial(c) for t in taken for c in t) * (raw // poset.symmetry)
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
