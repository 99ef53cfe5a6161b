"""Exhaustive generation of labeled floor diagrams.

Generation backtracks over the vertices 1..d.  Arriving at vertex v it
closes a sub-multiset of the currently open edges (edges whose target is
still undecided) and opens new edges whose total weight respects the
divergence bound.  Every diagram is produced exactly once; streams are
sorted into the canonical text order before being emitted.

A query's genus or cogenus fixes its edge count, and the sweep prunes
branches that can no longer become connected.  Together these enforce the
whole query, so no diagram is classified after it is built.

Edge-set families live in one in-memory cache keyed by degree, edge cap
and connectivity.  A stored family also serves tighter caps of the same
connectivity, and no other query.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .core import DiagramError, Edge, FloorDiagram, parse_tuples

_memory_cache: dict[tuple[int, int, bool], list[tuple[Edge, ...]]] = {}


def _weight_multisets(limit: int, cap: int) -> list[tuple[int, ...]]:
    """Weakly decreasing positive tuples with sum <= limit and parts <= cap."""
    out: list[tuple[int, ...]] = []

    def rec(maxpart: int, left: int, acc: list[int]):
        out.append(tuple(acc))
        for p in range(min(maxpart, left), 0, -1):
            acc.append(p)
            rec(p, left - p, acc)
            acc.pop()

    rec(cap, limit, [])
    return out


def _generate_edge_sets(
    d: int, max_edges: Optional[int], require_connected: bool = False
) -> Iterator[tuple[Edge, ...]]:
    """All edge multisets on 1..d with src < tgt and divergence <= 1.

    With require_connected, components are tracked through the sweep: a
    component of processed vertices that runs out of open edges can never
    rejoin the rest, so such branches are pruned (and everything reaching
    the last vertex is connected, since all surviving components close
    into it).
    """
    if d == 1:
        yield ()
        return
    weight_cap = d - 1
    closed: list[Edge] = []

    def visit(v: int, open_edges: tuple[tuple[int, int], ...], comp_of: dict[int, int]):
        # open_edges: (src, weight) pairs; comp_of maps sources to components
        if v == d:
            if max_edges is None or len(closed) + len(open_edges) <= max_edges:
                final = closed + [(s, d, w) for s, w in open_edges]
                yield tuple(sorted(final))
            return
        classes = sorted(Counter(open_edges).items())

        def close(idx: int, taken: list[tuple[int, int]], in_w: int):
            if idx == len(classes):
                take_count = Counter(taken)
                kept = []
                for cls, cnt in classes:
                    kept.extend([cls] * (cnt - take_count[cls]))
                for s, w in taken:
                    closed.append((s, v, w))
                merged = {comp_of[s] for s, _ in taken}
                merged_open = sum(1 for s, _ in kept if comp_of[s] in merged)
                budget = in_w + 1
                for new_weights in _weight_multisets(budget, weight_cap):
                    if (
                        require_connected
                        and v < d
                        and merged_open + len(new_weights) == 0
                    ):
                        continue
                    n_open = tuple(sorted(kept + [(v, w) for w in new_weights]))
                    if (
                        max_edges is not None
                        and len(closed) + len(n_open) > max_edges
                    ):
                        continue
                    n_comp = dict(comp_of)
                    for s in list(n_comp):
                        if n_comp[s] in merged:
                            n_comp[s] = v
                    n_comp[v] = v
                    yield from visit(v + 1, n_open, n_comp)
                for _ in taken:
                    closed.pop()
                return
            cls, cnt = classes[idx]
            for k in range(cnt + 1):
                yield from close(idx + 1, taken + [cls] * k, in_w + cls[1] * k)

        yield from close(0, [], 0)

    yield from visit(1, (), {})


def all_diagrams(
    d: int, max_edges: int, require_connected: bool = False
) -> list[tuple[Edge, ...]]:
    """Canonically sorted edge multisets with at most max_edges edges;
    memoized per query shape."""
    if d < 1:
        raise DiagramError(f"degree must be positive, got {d}")
    key = (d, max_edges, require_connected)
    if key in _memory_cache:
        return _memory_cache[key]
    # a family of the same connectivity with a looser cap serves this one
    for (dd, cap, conn), stored in _memory_cache.items():
        if (dd, conn) == (d, require_connected) and cap >= max_edges:
            return [e for e in stored if len(e) <= max_edges]
    # for d <= 9 every number in the text form is a single digit, so plain
    # tuple order coincides with lexicographic order on the canonical text
    if d <= 9:
        result = sorted(_generate_edge_sets(d, max_edges, require_connected))
    else:
        result = sorted(
            _generate_edge_sets(d, max_edges, require_connected),
            key=lambda edges: FloorDiagram(d, edges).text(),
        )
    _memory_cache[key] = result
    return result


# -- filters ----------------------------------------------------------------


def filter_predicate(spec: Optional[str]) -> Callable[[FloorDiagram], bool]:
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


@dataclass(frozen=True)
class DiagramQuery:
    """Enumeration request: degree plus exactly one of genus / cogenus.

    Genus queries cover connected diagrams only.  Cogenus queries allow
    disconnected diagrams; pass connected=True to restrict them.
    """

    d: int
    genus: Optional[int] = None
    cogenus: Optional[int] = None
    connected: Optional[bool] = None
    filter: Optional[str] = None

    def __post_init__(self):
        if self.d < 1:
            raise DiagramError(f"degree must be positive, got {self.d}")
        if (self.genus is None) == (self.cogenus is None):
            raise DiagramError("exactly one of genus / cogenus must be set")
        target = self.genus if self.genus is not None else self.cogenus
        if target < 0:
            raise DiagramError("genus / cogenus must be nonnegative")
        if self.genus is not None and self.connected is False:
            raise DiagramError("genus queries require connected diagrams")


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
        if len(edges) == edge_count:
            diag = FloorDiagram(query.d, edges)
            if pred(diag):
                yield diag


def count_connected(d: int, g: int) -> int:
    """Number of connected labeled floor diagrams of degree d, genus g."""
    if d < 1 or g < 0:
        raise DiagramError(f"need d >= 1 and g >= 0, got d={d}, g={g}")
    target = d + g - 1
    return sum(
        1 for edges in all_diagrams(d, target, True) if len(edges) == target
    )


def count_filtered(d: int, g: int, filter_spec: str) -> int:
    """Connected diagram count under a filter spec."""
    return sum(1 for _ in enumerate_diagrams(DiagramQuery(d, genus=g, filter=filter_spec)))
