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
reads too.  The count reads a marking one position at a time: each
position holds the next floor or one of the open midpoints and sinks,
and each floor spends its budget as it is placed, so one DP covers every
way the floors take their parts.  ``list_markings`` walks the same
positions for small diagrams, one distribution at a time, and lists one
linear order per orbit: the one whose interchangeable copies appear in
copy order.  ``oracles`` holds the independent counters the DP and the
listing are tested against.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from heapq import merge
from math import factorial, prod

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
    """Refuse a tangency profile that is not two partitions whose sizes add
    up to the degree."""
    if not (isinstance(lam, Partition) and isinstance(rho, Partition)):
        raise DiagramError(f"lambda and rho must be Partitions, got {lam!r} and {rho!r}")
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


def _budgets(diag: FloorDiagram, lam: Partition, rho: Partition) -> tuple:
    """Check the profile, then the floors' budgets 1 - divergence, which
    add up to |lambda| + |rho| = d, and lambda's and rho's multiplicity vectors."""
    check_profile(diag.d, lam, rho)
    size = max(lam.parts + rho.parts)
    vectors = (tuple(p.count(k) for k in range(1, size + 1)) for p in (lam, rho))
    return tuple(1 - dv for dv in diag.divergences()), *vectors


def _floor_plans(diag: FloorDiagram, lam: Partition, rho: Partition):
    """Every floor plan, as (t per floor, sinks per floor); one that
    reaches floor d has used every part."""
    budgets, lam_vec, rho_vec = _budgets(diag, lam, rho)
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


@lru_cache(maxsize=200_000)
def _gap_dp(d: int, windows: tuple[tuple[int, int], ...], budgets: Vector = (),
            lam: Vector = (), rho: Vector = ()) -> int:
    """Number of linear orders of floors 1..d and of items that lie in the
    gaps of their windows, read one position at a time; with ``budgets``,
    summed over every way the floors spend them on lambda parts and sinks.

    Gap j sits between floors j and j+1, so an item of window (lo, hi)
    opens with floor lo and is due before floor hi + 1.  A state is (floors
    placed, open items per deadline, lambda left, rho left).  A position
    holds one of the c open items of some deadline, in c ways, or the next
    floor once no open item is due before it.  Floor v opens the items
    whose windows start there and spends budgets[v-1] through
    ``floor_splits``: its sinks open with deadline d and the value is
    divided by t! u!.  Starting from (number of sinks)! prod lambda_k!
    keeps every division exact; the first factor is divided out at the end.
    """
    opening = [[hi for lo, hi in windows if lo == v] for v in range(d + 1)]
    spent: dict = {}  # floor_splits by (budget, lambda left, rho left)
    sinks = factorial(sum(rho))
    states = {(0, (0,) * (d + 1), lam, rho): sinks * prod(map(factorial, lam))}
    total = 0
    while states:
        new_states: dict = {}
        for (v, due, lam_left, rho_left), value in states.items():
            if v == d:  # the c items left open fill the last c positions
                total += factorial(due[d]) * value
                continue
            for h, c in enumerate(due):
                if c:
                    key = (v, due[:h] + (c - 1,) + due[h + 1:], lam_left, rho_left)
                    new_states[key] = new_states.get(key, 0) + c * value
            if due[v]:  # an item due before floor v+1 is still open
                continue
            opened = list(due)
            for hi in opening[v + 1]:
                if not v + 1 <= hi <= d:
                    raise AssertionError(f"item opened at floor {v + 1} is due at gap {hi}")
                opened[hi] += 1
            spend = (budgets[v] if budgets else 0, lam_left, rho_left)
            if (splits := spent.get(spend)) is None:
                splits = spent[spend] = floor_splits(*spend)
            for lam_next, rho_next, _, _, placed, symmetry in splits:
                if value % symmetry:
                    raise AssertionError(f"t! u! = {symmetry} does not divide {value}")
                key = (v + 1, (*opened[:d], opened[d] + placed), lam_next, rho_next)
                new_states[key] = new_states.get(key, 0) + value // symmetry
        states = new_states
    if total % sinks:
        raise AssertionError(f"{sinks} does not divide the order count {total}")
    return total // sinks


def count_orderings(poset: MarkingPoset) -> int:
    """Linear extensions of the marking poset, all elements distinguishable,
    lambda vertices pinned to the top block in their fixed order."""
    return _gap_dp(poset.d, poset.windows())


def count_relative_markings(diag: FloorDiagram, lam: Partition, rho: Partition) -> int:
    """nu_{lambda,rho}: the orders of every floor plan of the budgets
    1 - divergence, divided by the symmetry of parallel equal-weight edges."""
    windows = tuple((s, t - 1) for s, t, _ in diag.edges)
    raw = _gap_dp(diag.d, windows, *_budgets(diag, lam, rho))
    symmetry = prod(map(factorial, Counter(diag.edges).values()))
    if raw % symmetry:
        raise AssertionError(f"symmetry {symmetry} does not divide ordering count {raw}")
    return raw // symmetry


def count_markings(diag: FloorDiagram) -> int:
    """nu: ordinary marking count (lambda empty, rho all ones)."""
    return count_relative_markings(diag, Partition(()), Partition.ones(diag.d))


# -- explicit listing -----------------------------------------------------


def _poset_elements(poset: MarkingPoset) -> list[tuple]:
    """Element ids, in the order of ``poset.element_labels()``."""
    return ([("F", v) for v in range(1, poset.d + 1)] + [("M", *m) for m in poset.midpoints]
            + [("S", *s) for s in poset.sinks] + [("L", i) for i, _, _ in poset.lambda_vertices])


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
    class appear in copy order.  Each distribution's orders are walked one
    position at a time, trying the next floor first and then every open
    midpoint and sink in element-id order, copy c only once copy c-1 is
    placed; the lambda vertices close every order.  So the orders come out
    sorted.  Intended for small-d inspection, gallery rendering and the CLI
    --list flag; posets above BRUTE_FORCE_LIMIT elements are refused.
    """
    check_listing_size(diag.d + len(diag.edges) + lam.length + rho.length)
    reps: list[tuple[str, ...]] = []
    for dist in enumerate_distributions(diag, lam, rho):
        poset = build_poset(diag, dist, lam)
        elements = _poset_elements(poset)
        label = dict(zip(elements, poset.element_labels()))
        top = tuple(label[e] for e in reversed(elements) if e[0] == "L")
        items = sorted(e for e in elements if e[0] in "MS")
        reps.extend(order + top for order in _walk(poset.d, items, label))
    return reps


def _walk(d: int, items: list[tuple], label: dict) -> list[tuple[str, ...]]:
    """Every order of floors 1..d and the sorted midpoints and sinks
    ``items`` that puts each item after its floor, each midpoint before its
    target and each copy after the one before it, in lexicographic order."""
    before = [items.index(e[:-1] + (e[-1] - 1,)) if e[-1] else None for e in items]
    target = [e[2] if e[0] == "M" else 0 for e in items]  # a sink holds up no floor
    due = Counter(target)  # unplaced midpoints per target floor
    placed = [False] * len(items)
    order: list[str] = []
    out: list[tuple[str, ...]] = []

    def walk(v: int):
        if len(order) == d + len(items):
            out.append(tuple(order))
            return
        if v < d and not due[v + 1]:
            order.append(label["F", v + 1])
            walk(v + 1)
            order.pop()
        for i, e in enumerate(items):
            if e[1] <= v and not placed[i] and (before[i] is None or placed[before[i]]):
                placed[i] = True
                due[target[i]] -= 1
                order.append(label[e])
                walk(v)
                order.pop()
                due[target[i]] += 1
                placed[i] = False

    walk(0)
    return out
