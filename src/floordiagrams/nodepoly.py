"""Template calculus for Severi degrees at fixed cogenus.

A template is what remains of a diagram (extended by one auxiliary top
vertex absorbing the sinks) after deleting its weight-1 unit-span edges.
Severi degrees decompose into ordered sequences of non-overlapping
templates with integer offsets; each template contributes a polynomial
counting the orderings of its chunk.  Summing over the offsets is linear,
and a sequence prefix hands on only (cogenus used, current threshold), so
one dynamic program over those states merges every prefix that reaches a
state before summing further.  One pass of it yields the node polynomials
N_0, ..., N_delta, of degree twice the cogenus, valid from the threshold.

The program reads a template only through its cogenus, length, k_min,
epsilon and mu * P, and it is linear in mu * P, so it takes one sum per
group of the other four.  ``_template_groups`` gets every group up to
cogenus delta from one sweep over template vertices that carries the open
edges, without building any template; ``enumerate_templates`` and
``extension_polynomial`` serve the frozen figure rows and the oracles.

Every polynomial inside the program counts orderings, so it is
integer-valued and is stored as integer coefficients b in the binomial
basis, p(x) = sum_m b_m C(x, m).  A product is taken pointwise on values,
discrete summation shifts the index (hockey stick), and an argument shift
is Vandermonde's identity.  ``RatPolynomial`` appears only at the output.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product
from math import comb, factorial, prod
from operator import mul

from .core import DiagramError, Value, as_int, exact_div, memoize, strict_index, trim


class RatPolynomial(Value):
    """Single-variable polynomial with exact rational coefficients."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple[Fraction, ...] = ()):
        Value.__init__(self, trim(Fraction(c) for c in coefficients))

    @property
    def degree(self) -> int:
        """Degree with the convention that the zero polynomial has degree -1."""
        return len(self.coefficients) - 1

    def __add__(self, other: "RatPolynomial") -> "RatPolynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPolynomial(tuple(out))

    def __sub__(self, other: "RatPolynomial") -> "RatPolynomial":
        return self + other.scale(-1)

    def __mul__(self, other: "RatPolynomial") -> "RatPolynomial":
        if not self.coefficients or not other.coefficients:
            return RatPolynomial(())
        out = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a:
                for j, b in enumerate(other.coefficients):
                    out[i + j] += a * b
        return RatPolynomial(tuple(out))

    def scale(self, factor) -> "RatPolynomial":
        return RatPolynomial(tuple(Fraction(factor) * c for c in self.coefficients))

    def __call__(self, x) -> Fraction:
        value = Fraction(0)
        for c in reversed(self.coefficients):
            value = value * x + c
        return value

    def eval_int(self, x: int) -> int:
        value = self(x)
        return exact_div(value.numerator, value.denominator, f"polynomial at {x}")

    def format(self, var: str = "x") -> str:
        if not self.coefficients:
            return "0"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coefficients[i]
            if not c:
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append(f"{c}*{var}" if c != 1 else var)
            else:
                terms.append(f"{c}*{var}^{i}" if c != 1 else f"{var}^{i}")
        return " + ".join(terms).replace("+ -", "- ")

    def __str__(self) -> str:
        return self.format()

    @staticmethod
    def constant(value) -> "RatPolynomial":
        return RatPolynomial((Fraction(value),))

    @staticmethod
    def identity() -> "RatPolynomial":
        return RatPolynomial((Fraction(0), Fraction(1)))


def _gbinom(c: int, i: int) -> int:
    """C(c, i) = c (c-1) ... (c-i+1) / i! for any integer c."""
    return comb(c, i) if c >= 0 else (-1) ** i * comb(i - c - 1, i)


def _newton_values(b, count: int) -> list:
    """p(0), ..., p(count - 1) for p = sum_m b_m C(x, m).

    p(x + 1) has coefficients b_m + b_{m+1}, because C(x + 1, m) =
    C(x, m) + C(x, m - 1); each step reads off p(k) = b_0 and moves on.
    """
    row = list(b)
    out = []
    for _ in range(count):
        out.append(row[0] if row else 0)
        for i in range(len(row) - 1):
            row[i] += row[i + 1]
    return out


def _newton_from_values(values) -> tuple:
    """Binomial-basis coefficients of the polynomial through p(0), p(1), ...:
    the leading entries of the forward-difference table."""
    out = []
    row = list(values)
    while row:
        out.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return trim(out)


def _newton_add(p, q) -> tuple:
    if len(p) < len(q):
        p, q = q, p
    return trim([a + b for a, b in zip(p, q)] + list(p[len(q):]))


def _newton_mul(p, q) -> tuple:
    """Product, pointwise on the values at 0..deg p + deg q."""
    if not p or not q:
        return ()
    count = len(p) + len(q) - 1
    return _newton_from_values(
        a * b for a, b in zip(_newton_values(p, count), _newton_values(q, count))
    )


def _newton_shift(b, c: int) -> tuple:
    """p(x + c), by Vandermonde: C(x + c, m) = sum_j C(c, m - j) C(x, j)."""
    return tuple(
        sum(b[m] * _gbinom(c, m - j) for m in range(j, len(b))) for j in range(len(b))
    )


def _newton_sum(b, a: int, shift: int) -> tuple:
    """q with q(n) = sum_{k=a}^{n-shift} p(k) for all n.

    T(t) = sum_{k<t} p(k) = sum_m b_m C(t, m + 1) (hockey stick), so T has
    the coefficients of p moved up one place, and q(n) = T(n - shift + 1)
    - T(a).  The empty sum at n = a + shift - 1 is zero.
    """
    if not b:
        return ()
    partial = (0, *b)
    q = list(_newton_shift(partial, 1 - shift))
    q[0] -= sum(t * _gbinom(a, m) for m, t in enumerate(partial))
    return trim(q)


def _from_newton(b) -> RatPolynomial:
    """sum_m b_m C(x, m) in the power basis, with C(x, m) = x(x-1)...(x-m+1)/m!."""
    if not b:
        return RatPolynomial(())
    top = factorial(len(b) - 1)
    out = [0] * len(b)
    falling = [1]
    for m, bm in enumerate(b):
        scale = bm * (top // factorial(m))
        for i, c in enumerate(falling):
            out[i] += scale * c
        falling = [lo - m * hi for lo, hi in zip([0, *falling], [*falling, 0])]
    return RatPolynomial(tuple(Fraction(c, top) for c in out))


def discrete_sum(p: RatPolynomial, a: int, shift: int) -> RatPolynomial:
    """q with q(n) = sum_{k=a}^{n-shift} p(k) for all n >= a + shift.

    Works in the binomial-coefficient basis: partial sums of C(k, m) shift
    the lower index (hockey stick), then the argument is shifted back.
    The empty sum at n = a + shift - 1 evaluates to zero.
    """
    a, shift = as_int(a, "lower limit"), as_int(shift, "shift")
    basis = _newton_from_values(p(i) for i in range(p.degree + 1))
    return _from_newton(_newton_sum(basis, a, shift))


class Template(Value):
    """Weighted edge collection over vertices v_0 < ... < v_ell with no
    weight-1 unit-span edges and every interior vertex straddled."""

    __slots__ = ("edges",)

    def __init__(self, edges: tuple[tuple[int, int, int], ...]):  # (i, j, weight), i < j
        try:
            edges = tuple(sorted(tuple(map(strict_index, (i, j, w))) for i, j, w in edges))
        except (TypeError, ValueError) as exc:
            raise DiagramError(
                f"template edge entries must be integers, got {edges!r}"
            ) from exc
        if not edges:
            raise DiagramError("a template needs at least one edge")
        for i, j, w in edges:
            if i >= j:
                raise DiagramError(f"template edge ({i},{j},{w}) must go forward")
            if w < 1:
                raise DiagramError(f"template edge ({i},{j},{w}) needs positive weight")
            if j - i == 1 and w == 1:
                raise DiagramError("templates contain no weight-1 unit-span edges")
        if min(i for i, _, _ in edges) != 0:
            raise DiagramError("template vertices must start at v_0")
        ell = max(j for _, j, _ in edges)
        for mid in range(1, ell):
            if not any(i < mid < j for i, j, _ in edges):
                raise DiagramError(f"no template edge straddles vertex v_{mid}")
        Value.__init__(self, edges)

    @property
    def length(self) -> int:
        return max(j for _, j, _ in self.edges)

    @property
    def cogenus(self) -> int:
        return sum((j - i) * w - 1 for i, j, w in self.edges)

    @property
    def multiplicity(self) -> int:
        return prod(w * w for _, _, w in self.edges)

    @property
    def epsilon(self) -> int:
        ell = self.length
        return 1 if all(w == 1 for _, j, w in self.edges if j == ell) else 0

    @property
    def kappa(self) -> tuple[int, ...]:
        ell = self.length
        return tuple(
            sum(w for i, j, w in self.edges if i < g <= j) for g in range(1, ell + 1)
        )

    @property
    def k_min(self) -> int:
        return max(k - g for g, k in enumerate(self.kappa))

    def stats(self) -> tuple[int, int, int, tuple[int, ...], int]:
        return (self.length, self.multiplicity, self.epsilon, self.kappa, self.k_min)


@memoize
def enumerate_templates(delta: int) -> tuple[Template, ...]:
    """All templates of cogenus exactly delta, in canonical order."""
    delta = as_int(delta, "cogenus", 0)
    if delta == 0:
        return ()
    span_cap = delta + 1
    candidates = []
    for i in range(0, span_cap):
        for j in range(i + 1, span_cap + 1):
            span = j - i
            for w in range(1, delta + 1 + 1):
                cost = span * w - 1
                if 1 <= cost <= delta:
                    candidates.append(((i, j, w), cost))
    candidates.sort()
    templates = []

    def rec(idx: int, left: int, reach: int, acc: list):
        # acc is sorted by start, so an edge starting at i >= reach (the
        # largest end so far) would leave v_reach unstraddled for good
        if left == 0:
            templates.append(Template(tuple(acc)))
            return
        for pos in range(idx, len(candidates)):
            edge, cost = candidates[pos]
            if edge[0] >= reach:
                break
            if cost <= left:
                acc.append(edge)
                rec(pos, left - cost, max(reach, edge[1]), acc)
                acc.pop()

    rec(0, delta, 1, [])
    templates.sort(key=lambda t: (t.length, t.edges))
    return tuple(templates)


@lru_cache(maxsize=None)
def _extension_newton(template: Template) -> tuple:
    """P(template, k) in the binomial basis, from its values at k = 0..#edges.

    The chunk places s_g = k+g-1-kappa_g short-edge midpoints in gap g;
    template edge midpoints are distributed over the gaps they span,
    ordered within gaps, and shuffled against the short midpoints, so an
    assignment putting b_g of them in gap g counts prod_g (s_g+1)...(s_g+b_g)
    orderings.  Assignments are grouped by that occupancy vector.  Parallel
    equal-weight template edges are interchangeable, so each value is
    divided by the product of their factorials, exactly.
    """
    occupancy = Counter({(0,) * template.length: 1})
    for i, j, _ in template.edges:
        grown: Counter = Counter()
        for vec, ways in occupancy.items():
            for g in range(i, j):
                grown[vec[:g] + (vec[g] + 1,) + vec[g + 1 :]] += ways
        occupancy = grown
    symmetry = prod(factorial(n) for n in Counter(template.edges).values())
    edges = len(template.edges)
    where = f"template {template.edges}"
    values = []
    for k in range(edges + 1):
        # rising[g][b] = (s+1)...(s+b) for the s = k + g - kappa short
        # midpoints in (0-based) gap g
        rising = [
            list(accumulate(range(k + g - kappa + 1, k + g - kappa + edges + 1), mul, initial=1))
            for g, kappa in enumerate(template.kappa)
        ]
        raw = sum(
            ways * prod(map(list.__getitem__, rising, vec))
            for vec, ways in occupancy.items()
        )
        values.append(exact_div(raw, symmetry, where))
    return _newton_from_values(values)


def extension_polynomial(template: Template) -> RatPolynomial:
    """P(template, k): orderings of the template chunk with offset k."""
    return _from_newton(_extension_newton(template))


@lru_cache(maxsize=None)
def _openings(budget: int) -> tuple:
    """Every multiset of template edges one vertex can open within budget.

    Each is (cost, multiplicity, ((span, weight, count), ...)) with distinct
    (span, weight) kinds; an edge of span s and weight w costs s*w - 1 >= 1
    and carries w^2.  The empty multiset comes first.
    """
    kinds = [
        (span, w)
        for span in range(1, budget + 2)
        for w in range(1, budget + 2)
        if 1 <= span * w - 1 <= budget
    ]
    out = []

    def rec(pos: int, left: int, acc: list, mu: int):
        out.append((budget - left, mu, tuple(acc)))
        for at in range(pos, len(kinds)):
            span, w = kinds[at]
            cost = span * w - 1
            for count in range(1, left // cost + 1):
                acc.append((span, w, count))
                rec(at + 1, left - count * cost, acc, mu * w ** (2 * count))
                acc.pop()

    rec(0, budget, [], 1)
    return tuple(out)


@lru_cache(maxsize=None)
def _gap_factor(shift: int, b: int, width: int) -> tuple:
    """C(k + shift + b, b) at k = 0..width-1: the orderings of b template
    midpoints among the s = k + shift short midpoints of one gap, divided
    by b!."""
    return tuple(_gbinom(k + shift + b, b) for k in range(width))


def _add_into(table: dict, key, values: list) -> None:
    old = table.get(key)
    table[key] = values if old is None else [a + b for a, b in zip(old, values)]


def _template_groups(delta: int) -> tuple:
    """Templates of cogenus 1..delta as (cogenus, length, k_min, epsilon,
    sum of mu * P).

    The last four keys fix everything the state DP does with a template
    except its polynomial, and the DP is linear in that polynomial.  The sums
    come from one sweep over a template's vertices v = 0, 1, ..., capped at
    delta, so no template is built.  A state is (cogenus used, open edges,
    k_min so far); each open edge kind is (end j, weight w, midpoints
    pending, midpoints placed), and its value is the sum of mu * P over the
    partial templates, at k = 0..delta + 1.  Vertex v closes the edges ending
    there, ends the template at its used cogenus if none is left open, and
    otherwise opens new edges, paying w^2 each.  Gap v, between v and v + 1,
    places some pending midpoints (all of the edges ending at v + 1) among
    its k + v - kappa short midpoints.  Pending midpoints of one kind are
    interchangeable; that pays the parallel-edge symmetry exactly, provided
    m new edges that join n pending ones of their kind pay C(n + m, m).
    Every edge costs at least 1, so each sum has degree at most its
    cogenus c; the delta + 1 - c values past it check that.
    """
    width = delta + 2
    groups: dict = {}
    # k_min may start at 0: gap 0 is crossed by an edge, so kappa_0 >= 1
    layer = {(0, (), 0): [1] * width}
    v = 0
    while layer:
        opened: dict = {}
        for (used, edges, k_min), values in layer.items():
            closing = 0
            for j, _, pending, _ in edges:
                if j != v:
                    break
                if pending:
                    raise AssertionError(
                        f"template sweep: an edge ending at v_{v} has an unplaced "
                        f"midpoint ({pending} of its kind)"
                    )
                closing += 1
            left = edges[closing:]
            if v and not left:
                eps = 1 if all(w == 1 for _, w, _, _ in edges) else 0
                _add_into(groups, (used, v, k_min, eps), values)
                continue
            for cost, mu, new in _openings(delta - used):
                if not new:
                    if v:  # v_0 opens at least one edge
                        _add_into(opened, (used, left, k_min), values)
                    continue
                kinds = {(j, w): [pending, placed] for j, w, pending, placed in left}
                scale = mu
                for span, w, count in new:
                    slot = kinds.setdefault((v + span, w), [0, 0])
                    if slot[0]:
                        scale *= comb(slot[0] + count, count)
                    slot[0] += count
                key = (
                    used + cost,
                    tuple(sorted((j, w, p, q) for (j, w), (p, q) in kinds.items())),
                    k_min,
                )
                _add_into(opened, key, [scale * a for a in values])
        layer = {}
        for (used, edges, k_min), values in opened.items():
            kappa = 0
            choices = []
            for j, w, pending, placed in edges:
                kappa += w * (pending + placed)
                choices.append((pending,) if j == v + 1 else range(pending + 1))
            k_next = max(k_min, kappa - v)
            for take in product(*choices):
                b = 0
                ways = 1  # the multinomial b! / prod(take!)
                for t in take:
                    if t:
                        b += t
                        ways *= comb(b, t)
                if not b:
                    _add_into(layer, (used, edges, k_next), values)
                    continue
                factor = _gap_factor(v - kappa, b, width)
                moved = tuple(
                    [(j, w, p - t, q + t) for (j, w, p, q), t in zip(edges, take)]
                )
                _add_into(
                    layer,
                    (used, moved, k_next),
                    [ways * a * f for a, f in zip(values, factor)],
                )
        v += 1
    out = []
    for key in sorted(groups):
        poly = _newton_from_values(groups[key])
        if len(poly) > key[0] + 1:
            raise AssertionError(
                f"template sweep: group {key} has degree {len(poly) - 1} "
                f"above the cogenus {key[0]}"
            )
        out.append((*key, poly))
    return tuple(out)


@lru_cache(maxsize=None)
def _rows(delta: int) -> tuple:
    """N_0, ..., N_delta in the binomial basis, from one template sweep.

    ``states[c]`` maps each threshold a + length - 1 that a template
    sequence of cogenus c can end at to the merged polynomial of every
    sequence ending there; a template of cogenus t after it sums its
    product with that polynomial over offsets from max(k_min, threshold)
    into ``states[c + t]``.  N_c sums each ending polynomial shifted by the last
    template's epsilon, and its largest threshold - epsilon is checked not
    to exceed 2c, the threshold of the polynomiality theorem.
    """
    groups = _template_groups(delta)
    states: list = [{0: (1,)}]
    rows = [(1,)]
    for c in range(1, delta + 1):
        states.append({})
        ends: dict = {}
        worst = 0
        for cost, length, k_min, eps, poly in groups:
            if cost > c:  # groups come sorted by cogenus
                break
            for threshold, p in states[c - cost].items():
                a = max(k_min, threshold)
                q = _newton_sum(_newton_mul(poly, p), a, length)
                end = a + length - 1
                states[c][end] = _newton_add(states[c].get(end, ()), q)
                ends[eps] = _newton_add(ends.get(eps, ()), q)
                worst = max(worst, end - eps)
        if worst > 2 * c:
            raise AssertionError(f"validity threshold {worst} exceeds 2*delta = {2 * c}")
        rows.append(_newton_add(ends.get(0, ()), _newton_shift(ends.get(1, ()), 1)))
    return tuple(rows)


def node_polynomial(delta: int) -> tuple[RatPolynomial, int]:
    """Symbolic Severi-degree polynomial in d and its validity threshold,
    twice the cogenus, read from the state DP over template sequences."""
    delta = as_int(delta, "cogenus", 0)
    return _from_newton(_rows(delta)[delta]), 2 * delta


def aj_polynomials(delta_max: int) -> list[RatPolynomial]:
    """Quadratic-looking coefficients of the log of the node-polynomial series.

    A_j(d) = j * [t^j] log(sum_delta N_delta(d) t^delta), exact in Q[d].
    With N_0 = 1, the logarithmic derivative gives the integer recurrence
    A_j = j N_j - sum_{i<j} A_i N_{j-i}, taken in the binomial basis.
    """
    delta_max = as_int(delta_max, "cogenus", 1)
    series = _rows(delta_max)
    aj: list[tuple] = []
    for j in range(1, delta_max + 1):
        acc = tuple(j * c for c in series[j])
        for i in range(1, j):
            acc = _newton_add(acc, tuple(-c for c in _newton_mul(aj[i - 1], series[j - i])))
        aj.append(acc)
    return [_from_newton(a) for a in aj]
