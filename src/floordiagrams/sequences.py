"""Closed recurrences and the diagram/tree bijection.

Covers the maximal-tangency sequence z(d) with its ODE check, the
bijection between genus-0 diagrams and labeled trees (recursive by
definition, run here in one pass over the floors), and the closed
counting formulas for Cayley, alternating-tree and odd-diagram
numbers.  z(d) is read off e^y, so the ODE holds by algebra; z is checked
against the composition sum and increasing-tree oracles, the frozen table
and relative_gw(d, 0, (d), ()).
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import comb, factorial

from .core import (
    DiagramError, FloorDiagram, Value, as_int, exact_div, memoize, parse_text, strict_index,
)
from .enumeration import DiagramQuery, enumerate_diagrams


class LabeledTree(Value):
    """Tree on the vertex set 1..d, edges as unordered pairs."""

    __slots__ = ("d", "edges")

    def __init__(self, d: int, edges: Iterable[tuple[int, int]]):
        d = as_int(d, "tree size", 1)
        try:
            pairs = [
                (a, b) if (a := strict_index(x)) <= (b := strict_index(y)) else (b, a)
                for x, y in edges
            ]
        except (TypeError, ValueError) as exc:
            raise DiagramError(
                f"tree edges must be pairs of integers, got {edges!r}"
            ) from exc
        edges = frozenset(pairs)
        if len(edges) < len(pairs):
            a, b = next(pair for i, pair in enumerate(pairs) if pair in pairs[:i])
            raise DiagramError(f"tree edge ({a},{b}) is repeated")
        if len(edges) != d - 1:
            raise DiagramError(f"a tree on {d} vertices needs {d - 1} edges")
        for a, b in edges:
            if not (1 <= a < b <= d):
                raise DiagramError(f"tree edge ({a},{b}) out of range")
        # d - 1 edges that close no cycle span all of 1..d
        root = list(range(d + 1))
        for a, b in edges:
            while root[a] != a:
                root[a] = root[root[a]]
                a = root[a]
            while root[b] != b:
                root[b] = root[root[b]]
                b = root[b]
            if a == b:
                raise DiagramError("tree must be connected")
            root[b] = a
        Value.__init__(self, d, edges)

    def text(self) -> str:
        body = ";".join(f"({a},{b})" for a, b in sorted(self.edges))
        return f"d={self.d}; edges={body}"

    @staticmethod
    def from_text(text: str) -> "LabeledTree":
        d, edges = parse_text(text, 2, "tree")
        return LabeledTree(d, edges)


# -- maximal tangency ---------------------------------------------------------


@memoize
def max_tangency_fixed(d: int) -> int:
    """z(d): rational degree-d curves with order-d tangency at a fixed point.

    z(n+1) = (2n)! [x^n] e^y, y = sum a^2 z(a)/(2a)! x^a: the paper's sum over
    compositions of n.  ``tangency_series`` fills the cache for z(1..d-1) in
    increasing order, so the recursion stays one level deep.
    """
    d = as_int(d, "degree", 1)
    n = d - 1
    z = factorial(2 * n) * _series_exp([Fraction(0)] + tangency_series(n), n)[n]
    return exact_div(z.numerator, z.denominator, f"z({d})")


def max_tangency_free(d: int) -> int:
    """Order-d tangency at an unspecified point: d * z(d)."""
    d = as_int(d, "degree", 1)
    return d * max_tangency_fixed(d)


def tangency_series(order: int) -> list[Fraction]:
    """Coefficients of x^1..x^order of y(x) = sum d^2 z(d)/(2d)! x^d."""
    order = as_int(order, "order", 0)
    return [
        Fraction(dd * dd * max_tangency_fixed(dd), factorial(2 * dd))
        for dd in range(1, order + 1)
    ]


def _series_mul(a: list[Fraction], b: list[Fraction], order: int) -> list[Fraction]:
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a):
        if ai and i <= order:
            for j, bj in enumerate(b):
                if i + j > order:
                    break
                out[i + j] += ai * bj
    return out


def _series_exp(a: list[Fraction], order: int) -> list[Fraction]:
    if a[0] != 0:
        raise AssertionError("exp requires zero constant term")
    out = [Fraction(0)] * (order + 1)
    out[0] = Fraction(1)
    for n in range(1, order + 1):
        acc = Fraction(0)
        for k in range(1, n + 1):
            acc += k * a[k] * out[n - k] if k < len(a) else 0
        out[n] = acc / n
    return out


def ode_residual(order: int) -> list[Fraction]:
    """Coefficients of x(4y' - e^y - x e^y y') - 2y up to x^order.

    All coefficients must vanish when y is built from the tangency series.
    """
    order = as_int(order, "order", 1)
    y = [Fraction(0)] + tangency_series(order + 1)
    n = order + 1
    yprime = [Fraction(k + 1) * y[k + 1] if k + 1 < len(y) else Fraction(0) for k in range(n + 1)]
    ey = _series_exp(y[: n + 1], n)
    xey_yprime = [Fraction(0)] + _series_mul(ey, yprime, n)[:n]
    inner = [4 * yprime[k] - ey[k] - xey_yprime[k] for k in range(n + 1)]
    lhs = [Fraction(0)] + inner[:n]
    residual = [lhs[k] - 2 * y[k] for k in range(min(len(lhs), len(y)))]
    return residual[1 : order + 1]


# -- bijection with labeled trees --------------------------------------------


_TREE_ONLY = "the tree bijection needs a connected genus-0 diagram"


def _join(v: int, roots, owner: list[int], members: dict[int, list[int]]) -> None:
    """Merge vertex v with the components under ``roots``.  ``owner`` maps
    each vertex seen so far to the largest vertex of its component, and
    ``members`` maps that vertex to the component's vertices in order."""
    merged = []
    for r in roots:
        merged += members.pop(r)
    merged.sort()  # a merge of sorted runs
    merged.append(v)
    members[v] = merged
    for x in merged:
        owner[x] = v


# The recursive bijection roots every subdiagram at its largest vertex, so
# the subdiagrams hanging below vertex v are exactly the components of the
# floors 1..v-1 that v's incoming edges (or smaller tree neighbours) touch.
# Sweeping v = 1..d and merging those components into v therefore meets
# every subcall once, and the running divergences at v are those of each
# subdiagram on its own.  A component's choice list runs over its members
# left to right, with weights 1 - divergence down to 1.


def diagram_to_tree(diag: FloorDiagram) -> LabeledTree:
    """Matching bijection from genus-0 diagrams to labeled trees.

    Each component below vertex v joins v by one edge (u, v, w); its tree
    edge runs from v to the component member at the index of (u, w) in the
    component's choice list.  Two edges from one component into v close a
    cycle, and with d - 1 edges and no cycle the diagram is connected.
    """
    d = diag.d
    if len(diag.edges) != d - 1:
        raise DiagramError(_TREE_ONLY)
    into: list[list[tuple[int, int]]] = [[] for _ in range(d + 1)]
    for s, t, w in diag.edges:
        into[t].append((s, w))
    owner, members = list(range(d + 1)), {}
    div = [0] * (d + 1)
    tree_edges = []
    for v in range(1, d + 1):
        roots = set()
        for u, w in into[v]:
            r = owner[u]
            if r in roots:
                raise DiagramError(_TREE_ONLY)
            roots.add(r)
            idx = 1 - div[u] - w
            for x in members[r]:
                if x == u:
                    break
                idx += 1 - div[x]
            tree_edges.append((members[r][idx], v))
            div[u] += w
            div[v] -= w
        _join(v, roots, owner, members)
    return LabeledTree(d, frozenset(tree_edges))


def tree_to_diagram(tree: LabeledTree) -> FloorDiagram:
    """Inverse of diagram_to_tree, in the same sweep: the subtree below
    vertex v that meets v at its i-th member joins v by the i-th choice of
    its component's choice list."""
    d = tree.d
    below: list[list[int]] = [[] for _ in range(d + 1)]
    for a, b in tree.edges:
        below[b].append(a)
    owner, members = list(range(d + 1)), {}
    div = [0] * (d + 1)
    edges = []
    for v in range(1, d + 1):
        roots = set()
        for a in below[v]:
            r = owner[a]
            if r in roots:
                raise DiagramError("each subtree must attach to the root by one edge")
            roots.add(r)
            idx = members[r].index(a)
            for u in members[r]:
                room = 1 - div[u]
                if idx < room:
                    break
                idx -= room
            w = room - idx
            edges.append((u, v, w))
            div[u] += w
            div[v] -= w
        _join(v, roots, owner, members)
    return FloorDiagram(d, tuple(edges))


# -- closed counting formulas -------------------------------------------------


class CountReport(Value):
    __slots__ = (
        "d",
        "cayley",
        "genus0_enumerated",
        "alternating_formula",
        "underlying_trees_enumerated",
        "odd_formula",
        "odd_enumerated",
        "simple_enumerated",
    )


def cayley_count(d: int) -> int:
    d = as_int(d, "degree", 1)
    return 1 if d == 1 else d ** (d - 2)


def alternating_tree_count(d: int) -> int:
    """a_d = 1/(d 2^(d-1)) sum_k C(d,k) k^(d-1)."""
    d = as_int(d, "degree", 1)
    total = sum(comb(d, k) * k ** (d - 1) for k in range(1, d + 1))
    return exact_div(total, d * 2 ** (d - 1), f"alternating-tree formula at d={d}")


def odd_diagram_count(d: int) -> int:
    """b_d = 1/d sum_k (-1)^k C(d,k) (d-2k)^(d-1)."""
    d = as_int(d, "degree", 1)
    total = sum(
        (-1) ** k * comb(d, k) * (d - 2 * k) ** (d - 1) for k in range(d // 2 + 1)
    )
    return exact_div(total, d, f"odd-diagram formula at d={d}")


def closed_counts(d: int) -> CountReport:
    """Closed formulas next to the exhaustive counts they should match.

    The alternating-tree comparison is a report (the underlying-tree
    equinumerosity is open), the others are exact identities.
    """
    d = as_int(d, "degree", 1)
    # tallied in one pass over the stream, so the diagrams are never held together
    count = odd = simple = 0
    underlying = set()
    for diag in enumerate_diagrams(DiagramQuery(d, genus=0)):
        count += 1
        underlying.add(frozenset((s, t) for s, t, _ in diag.edges))
        odd += all(w % 2 for _, _, w in diag.edges)
        simple += all(w == 1 for _, _, w in diag.edges)
    return CountReport(
        d=d,
        cayley=cayley_count(d),
        genus0_enumerated=count,
        alternating_formula=alternating_tree_count(d),
        underlying_trees_enumerated=len(underlying),
        odd_formula=odd_diagram_count(d),
        odd_enumerated=odd,
        simple_enumerated=simple,
    )
