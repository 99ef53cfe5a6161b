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
copy order.  ``element_labels`` names each distribution's elements, for
the listing and for ``tropical``; no marking poset is built here.

``oracles`` holds the marking-poset layer and the independent counters
the DP and the listing are tested against.  Only oracles and tests call
``count_orderings``, the DP on a poset's ``d`` and ``windows()``; it stays
here because the benchmark's tracer (``perfbench/tracing.py``) patches
it and ``enumerate_distributions`` by name and reads
``_gap_dp.cache_info()``.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
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


def enumerate_distributions(diag: FloorDiagram, lam: Partition, rho: Partition):
    """Yield every distribution of new edges once, in lexicographic order
    on (lambda_sources, rho_sinks): each lambda index takes a floor with
    room for its part, in ascending floor order, then each floor takes a
    sorted multiset of the sinks left, in ascending order, that spends the
    rest of its budget 1 - divergence exactly."""
    left = list(_budgets(diag, lam, rho)[0])
    pool = Counter(rho.parts)
    sources: list[int] = []
    sinks: list[tuple[int, ...]] = []

    def place(i: int):
        if i < lam.length:
            for v, room in enumerate(left):
                if room >= lam.parts[i]:
                    left[v] -= lam.parts[i]
                    sources.append(v + 1)
                    yield from place(i + 1)
                    sources.pop()
                    left[v] += lam.parts[i]
        else:
            yield from sink(0, ())

    def sink(v: int, taken: tuple[int, ...]):
        if v == diag.d:
            yield Distribution(tuple(sources), tuple(sinks))
            return
        if not left[v]:
            sinks.append(taken)
            yield from sink(v + 1, ())
            sinks.pop()
        for w in range(taken[-1] if taken else 1, left[v] + 1):
            if pool[w]:
                pool[w] -= 1
                left[v] -= w
                yield from sink(v, taken + (w,))
                left[v] += w
                pool[w] += 1

    yield from place(0)


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


def count_orderings(poset) -> int:
    """Linear orders of a marking poset's floors, midpoints and sinks, all distinguishable."""
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


def element_labels(diag: FloorDiagram, dist: Distribution) -> dict[tuple, str]:
    """The label of every element id of a marking with this distribution, in
    element order: floors ("F", v), midpoints ("M", s, t, w, copy), sinks
    ("S", v, w, copy) and lambda vertices ("L", i), copies of one edge or
    of one sink weight at one floor numbered from 0."""
    copies: Counter = Counter()
    labels = {("F", v): f"v{v}" for v in range(1, diag.d + 1)}
    for s, t, w in diag.edges:
        labels["M", s, t, w, copies[s, t, w]] = f"e{s}-{t}w{w}#{copies[s, t, w]}"
        copies[s, t, w] += 1
    for v, weights in enumerate(dist.rho_sinks, start=1):
        for w in weights:
            labels["S", v, w, copies[v, w]] = f"s{v}w{w}#{copies[v, w]}"
            copies[v, w] += 1
    for i, src in enumerate(dist.lambda_sources, start=1):
        labels["L", i] = f"L{i}@v{src}"  # fed by floor src
    return labels


def check_listing_size(n_elements: int) -> None:
    """Refuse to list markings of more than BRUTE_FORCE_LIMIT elements."""
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
    --list flag; markings above BRUTE_FORCE_LIMIT elements are refused.
    """
    check_listing_size(diag.d + len(diag.edges) + lam.length + rho.length)
    reps: list[tuple[str, ...]] = []
    for dist in enumerate_distributions(diag, lam, rho):
        label = element_labels(diag, dist)
        top = tuple(label[e] for e in reversed(label) if e[0] == "L")
        items = sorted(e for e in label if e[0] in "MS")
        reps.extend(order + top for order in _walk(diag.d, items, label))
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
