"""Exhaustive generation of labeled floor diagrams.

Generation sweeps the floors 1..d and decides every edge at its source
floor.  Reaching floor v, its incoming weight is known, so it picks all
its outgoing edges at once: a multiset of (target, weight) pairs with
targets above v and total weight at most the incoming weight plus one.
Edges are appended in source order, so every edge tuple comes out
sorted; streams are then sorted into the canonical text order.

A query's genus or cogenus fixes its edge count, and the sweep prunes
branches that can no longer become connected.  Together these enforce the
whole query, so no diagram is classified after it is built.

One memoized sweep, ``_sweep``, serves listing and counting alike:
listing walks only the picks whose next state has a completion, and
``count_connected`` reads the completion count of the start state
without building any edge set.  Nothing is cached between queries: each
query runs its own sweep.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterator

from .core import DiagramError, Edge, FloorDiagram, Value, as_int, parse_tuples


def _sweep(d: int, n_edges: int, connected: bool):
    """Start state, ``moves`` and ``count`` of the floor sweep over edge
    multisets on 1..d with n_edges edges.

    A state is (floor v, incoming weights of floors v..d, components, edges
    used); with ``connected``, components is the sorted tuple of the
    pending-target bitmasks of the components below v, else it is empty.
    ``moves(state)`` lists floor v's picks of outgoing edges, each with its
    next state; ``count(state)``, memoized per sweep, counts its completions.
    """
    memo: dict[tuple, int] = {}

    def moves(state: tuple) -> list[tuple[tuple[Edge, ...], tuple]]:
        v, incoming, components, used = state
        # every edge from floors v..d-1 crosses a cut between u and u+1, and
        # each floor u raises the weight crossing by at most incoming[u] + 1
        room = sum((d - u) * (w + 1) for u, w in zip(range(v, d), incoming))
        if used + room < n_edges:
            return []
        # the components that target v merge with v; a pick that leaves the
        # merged one no pending target can never meet the floors above
        merged, apart = 0, []
        for targets in components:
            if targets >> v & 1:
                merged |= targets
            else:
                apart.append(targets)
        merged &= ~(1 << v)
        out = []
        rest = list(incoming[1:])

        def pick(t0: int, w0: int, budget: int, targets: int, picked: tuple) -> None:
            # edges (v, t, w) come in increasing (t, w) order from (t0, w0)
            total = used + len(picked)
            if not connected:
                out.append((picked, (v + 1, tuple(rest), (), total)))
            elif merged | targets:
                joined = tuple(sorted(apart + [merged | targets]))
                out.append((picked, (v + 1, tuple(rest), joined, total)))
            if total >= n_edges:
                return
            for t in range(t0, d + 1):
                for w in range(w0 if t == t0 else 1, budget + 1):
                    rest[t - v - 1] += w
                    pick(t, w, budget - w, targets | 1 << t, picked + ((v, t, w),))
                    rest[t - v - 1] -= w

        pick(v + 1, 1, incoming[0] + 1, 0, ())
        return out

    def count(state: tuple) -> int:
        if state[0] == d:
            return int(state[3] == n_edges)
        total = memo.get(state)
        if total is None:
            memo[state] = total = sum(count(nxt) for _, nxt in moves(state))
        return total

    return (1, (0,) * d, (), 0), moves, count


def _generate_edge_sets(
    d: int, n_edges: int, require_connected: bool = False
) -> list[tuple[Edge, ...]]:
    """All edge multisets on 1..d with n_edges edges, src < tgt and
    divergence <= 1, each tuple sorted (connected ones only, with
    require_connected), in the sweep's order.  Each state's live picks,
    those whose next state has a completion, are kept for the call."""
    start, moves, count = _sweep(d, n_edges, require_connected)
    live: dict[tuple, list] = {}
    out: list[tuple[Edge, ...]] = []

    def walk(state: tuple, edges: tuple[Edge, ...]) -> None:
        if state[0] == d:
            out.append(edges)
            return
        picks = live.get(state)
        if picks is None:
            live[state] = picks = [(p, nxt) for p, nxt in moves(state) if count(nxt)]
        for picked, nxt in picks:
            walk(nxt, edges + picked)

    if count(start):
        walk(start, ())
    return out


def all_diagrams(
    d: int, n_edges: int, require_connected: bool = False
) -> list[tuple[Edge, ...]]:
    """Edge multisets of degree d with exactly n_edges edges (connected ones
    only, with require_connected), in canonical text order."""
    d, n_edges = as_int(d, "degree", 1), as_int(n_edges, "edge count", 0)
    result = _generate_edge_sets(d, n_edges, require_connected)
    # for d <= 9 every number in the text form is a single digit, so plain
    # tuple order coincides with lexicographic order on the canonical text
    if d <= 9:
        result.sort()
    else:
        result.sort(key=lambda edges: FloorDiagram(d, edges).text())
    return result


# -- filters ----------------------------------------------------------------


def filter_predicate(spec: str | None) -> Callable[[FloorDiagram], bool]:
    """Parse a filter spec into a predicate.

    Supported: ``odd`` (all weights odd), ``simple`` (all weights one),
    ``has-weight=K``, ``max-weight=K`` (largest single edge weight <= K),
    ``last-sinks=K`` (vertices d-K+1..d have no outgoing edge),
    ``contains=(s,t,w);(s,t,w)...`` (multiset containment).
    """
    if spec is None or spec == "":
        return lambda diag: True
    if not isinstance(spec, str):
        raise DiagramError(f"malformed filter {spec!r}: not a string")
    if spec == "odd":
        return lambda diag: all(w % 2 == 1 for _, _, w in diag.edges)
    if spec == "simple":
        return lambda diag: all(w == 1 for _, _, w in diag.edges)
    name, sep, arg = spec.partition("=")
    if not sep or name not in ("has-weight", "max-weight", "last-sinks", "contains"):
        raise DiagramError(f"unknown filter {spec!r}")
    try:
        value = Counter(parse_tuples(arg, 3)) if name == "contains" else int(arg)
    except ValueError as exc:
        raise DiagramError(f"malformed filter {spec!r}") from exc
    if name == "has-weight":
        return lambda diag: any(w == value for _, _, w in diag.edges)
    if name == "max-weight":
        return lambda diag: all(w <= value for _, _, w in diag.edges)
    if name == "last-sinks":
        return lambda diag: all(s <= diag.d - value for s, _, _ in diag.edges)
    # multiset containment: nothing wanted is left over after removing the edges
    return lambda diag: not value - Counter(diag.edges)


class DiagramQuery(Value):
    """Enumeration request: degree plus exactly one of genus / cogenus.

    Genus queries cover connected diagrams only.  Cogenus queries allow
    disconnected diagrams; pass connected=True to restrict them.
    """

    __slots__ = ("d", "genus", "cogenus", "connected", "filter")

    def __init__(
        self,
        d: int,
        genus: int | None = None,
        cogenus: int | None = None,
        connected: bool | None = None,
        filter: str | None = None,
    ):
        d = as_int(d, "degree", 1)
        if (genus is None) == (cogenus is None):
            raise DiagramError("exactly one of genus / cogenus must be set")
        if genus is not None:
            genus = as_int(genus, "genus", 0)
        else:
            cogenus = as_int(cogenus, "cogenus", 0)
        if not (connected is None or isinstance(connected, bool)):
            raise DiagramError(f"connected must be None, True or False, got {connected!r}")
        if genus is not None and connected is False:
            raise DiagramError("genus queries require connected diagrams")
        filter_predicate(filter)  # a malformed spec fails here, not at first next()
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "cogenus", cogenus)
        object.__setattr__(self, "connected", connected)
        object.__setattr__(self, "filter", filter)


def _exact_edge_count(query: DiagramQuery) -> int:
    """Edge count forced by the target.

    Connected genus-g diagrams have d+g-1 edges.  Degree-d cogenus-delta
    diagrams (connected or not) all have d + (d-1)(d-2)/2 - 1 - delta
    edges: the pairwise degree products in the total-cogenus formula make
    the count independent of the component structure.
    """
    d = query.d
    if query.genus is not None:
        return d + query.genus - 1
    return d + (d - 1) * (d - 2) // 2 - 1 - query.cogenus


def enumerate_diagrams(query: DiagramQuery) -> Iterator[FloorDiagram]:
    """Stream every diagram matching the query, in canonical text order."""
    pred = filter_predicate(query.filter)
    edge_count = _exact_edge_count(query)
    if edge_count < 0:
        return
    connected_only = query.genus is not None or query.connected is True
    for edges in all_diagrams(query.d, edge_count, connected_only):
        diag = FloorDiagram(query.d, edges)
        if pred(diag):
            yield diag


def count_connected(d: int, g: int) -> int:
    """Number of connected labeled floor diagrams of degree d, genus g: the
    connected edge sets with d + g - 1 edges, counted by the sweep's memo
    without building any."""
    d, g = as_int(d, "degree", 1), as_int(g, "genus", 0)
    start, _, count = _sweep(d, d + g - 1, True)
    return count(start)


def count_filtered(d: int, g: int, filter_spec: str) -> int:
    """Connected diagram count under a filter spec."""
    return sum(1 for _ in enumerate_diagrams(DiagramQuery(d, genus=g, filter=filter_spec)))
