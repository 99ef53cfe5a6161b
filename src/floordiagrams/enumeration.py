"""Exhaustive generation of labeled floor diagrams.

Generation sweeps the floors 1..d and decides every edge at its source
floor.  Reaching floor v, its incoming weight is known, so it picks all
its outgoing edges at once: a multiset of (target, weight) pairs with
targets above v and total weight at most the incoming weight plus one.
Edges are appended in source order, so every edge tuple comes out
sorted; streams are then sorted into the canonical text order.

A query's genus or cogenus fixes its edge count, and the sweep prunes
branches that can no longer become connected.  Together these enforce the
whole query, so no diagram is classified after it is built.  Nothing is
cached between queries: each query runs its own sweep.  ``count_connected``
walks the same sweep but only counts, memoizing the count of each state
(incoming weights, component masks, edges used) for the length of one
call, so it builds no edge set.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterator

from .core import DiagramError, Edge, FloorDiagram, Value, parse_tuples


def _generate_edge_sets(
    d: int, n_edges: int, require_connected: bool = False
) -> list[tuple[Edge, ...]]:
    """All edge multisets on 1..d with n_edges edges, src < tgt and
    divergence <= 1, each tuple sorted.

    With require_connected, each component of the floors below v is kept
    as the bitmask of its pending targets.  The components that target v
    merge with v; if the merged component has no pending target left and
    v < d, it can never meet the floors above, so the branch is pruned.
    Everything reaching floor d is then connected.
    """
    out: list[tuple[Edge, ...]] = []
    edges: list[Edge] = []
    incoming = [0] * (d + 1)

    def floor(v: int, components: list[int]) -> None:
        if v == d:
            if len(edges) == n_edges:
                out.append(tuple(edges))
            return
        # every edge from floors v..d-1 crosses a cut between u and u+1, and
        # each floor u raises the weight crossing by at most incoming[u] + 1
        room = sum((d - u) * (incoming[u] + 1) for u in range(v, d))
        if len(edges) + room < n_edges:
            return
        merged, apart = 0, []
        for targets in components:
            if targets >> v & 1:
                merged |= targets
            else:
                apart.append(targets)
        merged &= ~(1 << v)

        def pick(t0: int, w0: int, budget: int, targets: int) -> None:
            # edges (v, t, w) come in increasing (t, w) order from (t0, w0)
            if not require_connected:
                floor(v + 1, [])
            elif merged | targets:
                floor(v + 1, apart + [merged | targets])
            if len(edges) >= n_edges:
                return
            for t in range(t0, d + 1):
                for w in range(w0 if t == t0 else 1, budget + 1):
                    edges.append((v, t, w))
                    incoming[t] += w
                    pick(t, w, budget - w, targets | 1 << t)
                    incoming[t] -= w
                    edges.pop()

        pick(v + 1, 1, incoming[v] + 1, 0)

    floor(1, [])
    return out


def all_diagrams(
    d: int, n_edges: int, require_connected: bool = False
) -> list[tuple[Edge, ...]]:
    """Edge multisets of degree d with exactly n_edges edges (connected ones
    only, with require_connected), in canonical text order."""
    if d < 1:
        raise DiagramError(f"degree must be positive, got {d}")
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
        if d < 1:
            raise DiagramError(f"degree must be positive, got {d}")
        if (genus is None) == (cogenus is None):
            raise DiagramError("exactly one of genus / cogenus must be set")
        target = genus if genus is not None else cogenus
        if target < 0:
            raise DiagramError("genus / cogenus must be nonnegative")
        if genus is not None and connected is False:
            raise DiagramError("genus queries require connected diagrams")
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
    connected edge sets with d + g - 1 edges.

    The sweep of ``_generate_edge_sets`` with counts in place of edge
    tuples.  What is left to choose at floor v depends only on the
    incoming weights of floors v..d, the pending-target bitmasks of the
    components below v and the edges used, so each such state is counted
    once, in a memo that lives for this call only.
    """
    if d < 1 or g < 0:
        raise DiagramError(f"need d >= 1 and g >= 0, got d={d}, g={g}")
    n_edges = d + g - 1
    incoming = [0] * (d + 1)
    memo: dict[tuple, int] = {}

    def floor(v: int, components: tuple[int, ...], used: int) -> int:
        if v == d:
            return int(used == n_edges)
        room = sum((d - u) * (incoming[u] + 1) for u in range(v, d))
        if used + room < n_edges:
            return 0
        key = (v, tuple(incoming[v:]), components, used)
        if key in memo:
            return memo[key]
        merged, apart = 0, []
        for targets in components:
            if targets >> v & 1:
                merged |= targets
            else:
                apart.append(targets)
        merged &= ~(1 << v)

        def pick(t0: int, w0: int, budget: int, targets: int, used: int) -> int:
            total = 0
            if merged | targets:
                total += floor(v + 1, tuple(sorted(apart + [merged | targets])), used)
            if used >= n_edges:
                return total
            for t in range(t0, d + 1):
                for w in range(w0 if t == t0 else 1, budget + 1):
                    incoming[t] += w
                    total += pick(t, w, budget - w, targets | 1 << t, used + 1)
                    incoming[t] -= w
            return total

        memo[key] = total = pick(v + 1, 1, incoming[v] + 1, 0, used)
        return total

    return floor(1, (), 0)


def count_filtered(d: int, g: int, filter_spec: str) -> int:
    """Connected diagram count under a filter spec."""
    return sum(1 for _ in enumerate_diagrams(DiagramQuery(d, genus=g, filter=filter_spec)))
