"""Closed recurrences and the diagram/tree bijection.

Covers the maximal-tangency sequence z(d) with its ODE check, the
recursive bijection between genus-0 diagrams and labeled trees, and the
closed counting formulas for Cayley, alternating-tree and odd-diagram
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .core import DiagramError, FloorDiagram, components, parse_tuples
from .enumeration import DiagramQuery, enumerate_diagrams


@dataclass(frozen=True)
class LabeledTree:
    """Tree on the vertex set 1..d, edges as unordered pairs."""

    d: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        edges = frozenset(tuple(sorted(e)) for e in self.edges)
        object.__setattr__(self, "edges", edges)
        if self.d < 1:
            raise DiagramError(f"tree needs at least one vertex, got d={self.d}")
        if len(edges) != self.d - 1:
            raise DiagramError(f"a tree on {self.d} vertices needs {self.d - 1} edges")
        for a, b in edges:
            if not (1 <= a < b <= self.d):
                raise DiagramError(f"tree edge ({a},{b}) out of range")
        if len(components(range(1, self.d + 1), edges)) != 1:
            raise DiagramError("tree must be connected")

    def text(self) -> str:
        body = ";".join(f"({a},{b})" for a, b in sorted(self.edges))
        return f"d={self.d}; edges={body}"

    @staticmethod
    def from_text(text: str) -> "LabeledTree":
        try:
            head, body = text.split(";", 1)
            d = int(head.strip().removeprefix("d="))
            edges = parse_tuples(body.strip().removeprefix("edges="), 2)
        except ValueError as exc:
            raise DiagramError(f"cannot parse tree text {text!r}") from exc
        return LabeledTree(d, frozenset(edges))


# -- maximal tangency ---------------------------------------------------------


@lru_cache(maxsize=None)
def max_tangency_fixed(d: int) -> int:
    """z(d): rational degree-d curves with order-d tangency at a fixed point.

    Recurrence: z(n+1) = sum_k (2n)!/k! sum over compositions of n into k
    positive parts of prod a_i^2 z(a_i) / (2 a_i)!  with z(1) = 1.
    """
    if d < 1:
        raise DiagramError(f"degree must be positive, got {d}")
    if d == 1:
        return 1
    n = d - 1
    terms = [Fraction(0)] + [
        Fraction(a * a * max_tangency_fixed(a), factorial(2 * a)) for a in range(1, n + 1)
    ]
    # comp[k][m] = sum over ordered compositions of m into k parts of the product
    comp = [Fraction(0)] * (n + 1)
    comp[0] = Fraction(1)
    total = Fraction(0)
    for k in range(1, n + 1):
        nxt = [Fraction(0)] * (n + 1)
        for m in range(1, n + 1):
            acc = Fraction(0)
            for a in range(1, m + 1):
                if comp[m - a]:
                    acc += comp[m - a] * terms[a]
            nxt[m] = acc
        comp = nxt
        total += Fraction(factorial(2 * n), factorial(k)) * comp[n]
    if total.denominator != 1:
        raise AssertionError(f"z({d}) must be an integer, got {total}")
    return int(total)


def max_tangency_free(d: int) -> int:
    """Order-d tangency at an unspecified point: d * z(d)."""
    if d < 1:
        raise DiagramError(f"degree must be positive, got {d}")
    return d * max_tangency_fixed(d)


def tangency_series(order: int) -> list[Fraction]:
    """Coefficients of x^1..x^order of y(x) = sum d^2 z(d)/(2d)! x^d."""
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
    if order < 1:
        raise DiagramError(f"order must be positive, got {order}")
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


def _diagram_choice_list(vertices: tuple[int, ...], edges) -> list[tuple[int, int]]:
    """Ordered (vertex, weight) choices for attaching a subdiagram to a root:
    vertices left to right, weights from 1 - local divergence down to 1."""
    out = []
    for v in vertices:
        div = sum(w for s, _, w in edges if s == v) - sum(
            w for _, t, w in edges if t == v
        )
        for w in range(1 - div, 0, -1):
            out.append((v, w))
    return out


def _diag_to_tree_edges(vertices: tuple[int, ...], edges) -> frozenset:
    if len(vertices) == 1:
        return frozenset()
    root = max(vertices)
    # the root is the largest vertex, so it can only be an edge's second end
    comps = components(
        (v for v in vertices if v != root), (e for e in edges if e[1] != root)
    )
    tree_edges: set[tuple[int, int]] = set()
    for comp in comps:
        comp_set = set(comp)
        sub = tuple(e for e in edges if e[0] in comp_set and e[1] in comp_set)
        link = [e for e in edges if e[1] == root and e[0] in comp_set]
        if len(link) != 1:
            raise DiagramError("each component must attach to the root by one edge")
        v, _, w = link[0]
        choices = _diagram_choice_list(comp, sub)
        idx = choices.index((v, w))
        attach = comp[idx]
        tree_edges.add((attach, root))
        tree_edges |= _diag_to_tree_edges(comp, sub)
    return frozenset(tree_edges)


def diagram_to_tree(diag: FloorDiagram) -> LabeledTree:
    """Recursive matching bijection from genus-0 diagrams to labeled trees."""
    if not diag.connected or diag.genus() != 0:
        raise DiagramError("the tree bijection needs a connected genus-0 diagram")
    vertices = tuple(range(1, diag.d + 1))
    return LabeledTree(diag.d, _diag_to_tree_edges(vertices, diag.edges))


def _tree_to_diag_edges(vertices: tuple[int, ...], edges: frozenset) -> tuple:
    if len(vertices) == 1:
        return ()
    root = max(vertices)
    comps = components(
        (v for v in vertices if v != root), (e for e in edges if e[1] != root)
    )
    diag_edges: list[tuple[int, int, int]] = []
    for comp in comps:
        comp_set = set(comp)
        sub = frozenset(e for e in edges if e[0] in comp_set and e[1] in comp_set)
        link = [e for e in edges if root in e and (e[0] in comp_set or e[1] in comp_set)]
        if len(link) != 1:
            raise DiagramError("each subtree must attach to the root by one edge")
        attach = link[0][0] if link[0][1] == root else link[0][1]
        sub_diag = _tree_to_diag_edges(comp, sub)
        choices = _diagram_choice_list(comp, sub_diag)
        idx = comp.index(attach)
        v, w = choices[idx]
        diag_edges.extend(sub_diag)
        diag_edges.append((v, root, w))
    return tuple(sorted(diag_edges))


def tree_to_diagram(tree: LabeledTree) -> FloorDiagram:
    """Inverse of diagram_to_tree."""
    vertices = tuple(range(1, tree.d + 1))
    return FloorDiagram(tree.d, _tree_to_diag_edges(vertices, tree.edges))


# -- closed counting formulas -------------------------------------------------


@dataclass(frozen=True)
class CountReport:
    d: int
    cayley: int
    genus0_enumerated: int
    alternating_formula: int
    underlying_trees_enumerated: int
    odd_formula: int
    odd_enumerated: int
    simple_enumerated: int


def cayley_count(d: int) -> int:
    return 1 if d == 1 else d ** (d - 2)


def alternating_tree_count(d: int) -> int:
    """a_d = 1/(d 2^(d-1)) sum_k C(d,k) k^(d-1)."""
    total = sum(comb(d, k) * k ** (d - 1) for k in range(1, d + 1))
    denom = d * 2 ** (d - 1)
    if total % denom:
        raise AssertionError(f"alternating-tree formula must divide exactly at d={d}")
    return total // denom


def odd_diagram_count(d: int) -> int:
    """b_d = 1/d sum_k (-1)^k C(d,k) (d-2k)^(d-1)."""
    total = sum(
        (-1) ** k * comb(d, k) * (d - 2 * k) ** (d - 1) for k in range(d // 2 + 1)
    )
    if total % d:
        raise AssertionError(f"odd-diagram formula must divide exactly at d={d}")
    return total // d


def closed_counts(d: int) -> CountReport:
    """Closed formulas next to the exhaustive counts they should match.

    The alternating-tree comparison is a report (the underlying-tree
    equinumerosity is open), the others are exact identities.
    """
    if d < 1:
        raise DiagramError(f"degree must be positive, got {d}")
    genus0 = list(enumerate_diagrams(DiagramQuery(d, genus=0)))
    underlying = {frozenset((s, t) for s, t, _ in diag.edges) for diag in genus0}
    odd = sum(1 for diag in genus0 if all(w % 2 for _, _, w in diag.edges))
    simple = sum(1 for diag in genus0 if all(w == 1 for _, _, w in diag.edges))
    return CountReport(
        d=d,
        cayley=cayley_count(d),
        genus0_enumerated=len(genus0),
        alternating_formula=alternating_tree_count(d),
        underlying_trees_enumerated=len(underlying),
        odd_formula=odd_diagram_count(d),
        odd_enumerated=odd,
        simple_enumerated=simple,
    )
