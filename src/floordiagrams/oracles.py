"""Reference computations the tests compare the engine against.

No production module imports this one; the tests do.  It also holds the
marking-poset layer (``MarkingPoset``, ``build_poset``), which only the
oracles and the tests use.

``caporaso_harris`` is the Caporaso-Harris recursion (Caporaso & Harris,
Counting plane curves of any genus, Invent. Math. 131, 1998; tropical
proof in Gathmann & Markwig, Math. Ann. 338, 2007) for relative Severi
degrees N^{d,delta}(alpha, beta): possibly reducible delta-nodal degree-d
curves through the right number of generic points, with tangency alpha to
a fixed line at fixed points and beta at moving points.  alpha and beta
are multiplicity vectors: alpha[k-1] is the number of contacts of order
k.  Relative to the engine's partitions, lambda maps to alpha and rho to
beta, so the ordinary Severi degree is N^{d,delta}(0, (d)).  It shares no code
with floor diagrams or templates.

``severi_split_oracle`` is the splitting formula: a Severi degree as a
sum over the ways a curve splits into components, each counted by
``gw``.  ``gw`` inverts the floor sweep over the component that holds
floor 1, which is this formula in exponential form (a marking's
d + edges + d items are the d(d+3)/2 - delta points), so the two agree
with ``severi`` whatever the sweep's rows are; the comparison checks the
splitting enumerator, not the sweep.  ``gw_log_oracle`` runs the same
formula the other way from ``caporaso_harris`` alone: gw at every genus as
the log of the Severi degrees' exponential series in the point count, so
it checks the inversion in ``invariants._connected``.
``welschinger_log_oracle`` takes the same log of the recursion refined at
y = -1, and so checks ``welschinger`` and the odd-weight sweep's connected
sums at every genus.

``closed_form_gmax`` and ``closed_form_uninodal`` give relative invariants
at and one below the maximal genus in closed form; ``collinear_triple``
counts curves through three collinear points from two ``gw`` values.

``severi_numeric`` is the template master sum with explicit offsets, one
template sequence at a time.  It shares the templates and extension
polynomials with ``nodepoly`` but not the state DP or any discrete sum.
``template_groups_oracle`` sums the extension polynomials per (length,
k_min, epsilon) group one template at a time; ``nodepoly`` gets the same
sums from one sweep over template vertices that builds no template.
``exp_series`` rebuilds the node-polynomial series from the A_j, and
``shift_argument`` shifts a polynomial's argument.

The rest count one diagram at a time.  ``edge_sets_oracle`` lists edge
sets by a depth-first floor sweep with no memo; ``enumeration`` lists
and counts them from one memoized sweep.  ``kontsevich_oracle`` is
Kontsevich's recursion for gw(d, 0).  ``welschinger_oracle`` sums the
marking counts of the enumerated odd genus-0 diagrams, and
``tangency_at_point`` counts the markings whose top k elements are sinks
of one floor, against ``relative_gw``.  ``distributions_oracle`` lists the
distributions of a (lambda, rho)-marking one lambda index and one sink at
a time; ``markings`` takes the same order in one pass with the sinks of
each floor as one multiset, so ``list_markings``, which reads it, is
checked against the orbit lister below as well.  ``MarkingPoset`` is the
marking poset of one distribution, built by ``build_poset`` with element
ids from ``_poset_elements``; ``markings.element_labels`` names the same
elements without it, and ``markings.ordinary_labels``, which reads those
names back, is tested against it.  ``gap_dp_oracle`` orders
a marking poset one gap at a time, filling each gap from the pending
items by one ``_gap_choices`` transfer, and ``count_orderings_downset``
one element at a time; ``markings`` counts every floor plan at once, one
position at a time.  ``marking_orbits_oracle`` lists marking orbits
explicitly: every linear order of every oracle distribution
(``_linear_extensions`` under the ``_poset_constraints``), each mapped to
the minimum over the automorphism group; ``list_markings`` is tested
against it, and ``brute_force_markings`` is its length, tested against
the marking count.
``increasing_tree_oracle`` recomputes z(d) over increasing-tree diagrams,
and ``max_tangency_compositions_oracle`` from the paper's recurrence as a
sum over compositions; ``sequences`` reads z(d) off the exponential e^y.

``diagram_to_tree_oracle`` and ``tree_to_diagram_oracle`` are the tree
bijection as the paper defines it: root at the largest vertex, split the
rest into components, attach each by its choice list, and recurse, with
every component, edge filter and divergence recomputed at each level.
``sequences`` runs the same bijection in one pass over the floors.

``sketch_svg_oracle`` draws a tropical curve sketch with every coordinate
mapped as its own Fraction; ``render.sketch_svg`` maps integers over one
common denominator and must give the same bytes.  ``reconstruct_oracle``
and ``verify_curve_oracle`` rebuild and check a sketch with every height
and slope a Fraction; ``tropical`` walks the floors in integers on the
configuration's lattice and must give equal records.  ``floor_height``
reads a floor's y at any x for the drawing and the check.

``extract_marking`` reads the diagram and the marking order back off a
sketch, for the reconstruction round trip.  ``copy_with`` copies a value
record with some fields changed, and ``perturb_elevator`` uses it to build
faulty sketches that ``tropical.verify_curve`` must reject.  ``distinct_orderings``,
``severi_reducible_entries`` and ``appendix_counts`` are small readers of
partitions and frozen tables that only the tests use.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product, zip_longest
from math import comb, factorial, prod
from typing import Iterable, Optional

from .core import DiagramError, Edge, FloorDiagram, Partition, Value, components
from .enumeration import DiagramQuery, enumerate_diagrams
from .invariants import gw, relative_gw
from .markings import (
    BRUTE_FORCE_LIMIT,
    Distribution,
    canonical_marking,
    checked_order,
    count_markings,
    count_orderings,
    ordinary_labels,
)
from .nodepoly import (
    RatPolynomial,
    _extension_newton,
    _newton_add,
    enumerate_templates,
    extension_polynomial,
)
from .render import ACCENT, DOT, MARGIN, SKETCH_SIZE, STROKE, _fmt, _svg
from .sequences import LabeledTree
from .tables import _load
from .tropical import (
    CurveCheck,
    CurveReport,
    Elevator,
    FloorCurve,
    StretchedConfig,
    TropicalCurveSketch,
)

Vector = tuple[int, ...]


def _trim(vec) -> Vector:
    vec = list(vec)
    while vec and not vec[-1]:
        vec.pop()
    return tuple(vec)


def _weight(vec: Vector) -> int:
    """I(vec) = sum of k * vec_k."""
    return sum(k * c for k, c in enumerate(vec, start=1))


def _add(u: Vector, v: Vector) -> Vector:
    return _trim(a + b for a, b in zip_longest(u, v, fillvalue=0))


def _shift(vec: Vector, k: int, by: int) -> Vector:
    """vec + by * e_k."""
    return _add(vec, (0,) * (k - 1) + (by,))


@lru_cache(maxsize=None)
def _vectors_of_weight(n: int, top: int) -> tuple[Vector, ...]:
    """Every multiplicity vector gamma with I(gamma) = n and no part above
    ``top``: the partitions of n."""
    if n == 0:
        return ((),)
    return tuple(
        _shift(rest, k, 1)
        for k in range(min(n, top), 0, -1)
        for rest in _vectors_of_weight(n - k, k)
    )


@lru_cache(maxsize=None)
def _ch(d: int, delta: int, alpha: Vector, beta: Vector) -> int:
    if delta < 0 or _weight(alpha) + _weight(beta) != d:
        return 0
    if d == 0:
        return 1 if delta == 0 else 0
    total = 0
    for k, b in enumerate(beta, start=1):
        if b:
            total += k * _ch(d, delta, _shift(alpha, k, 1), _shift(beta, k, -1))
    for sub in product(*(range(a + 1) for a in alpha)):
        alpha_p = _trim(sub)
        free = d - 1 - _weight(alpha_p) - _weight(beta)
        if free < 0:
            continue
        choose_alpha = prod(comb(a, ap) for a, ap in zip(alpha, sub))
        for gamma in _vectors_of_weight(free, free):
            delta_p = delta - (d - 1) + sum(gamma)
            if delta_p < 0:
                continue
            beta_p = _add(beta, gamma)
            tangency = prod((k + 1) ** g for k, g in enumerate(gamma))
            choose_beta = prod(comb(bp, b) for bp, b in zip(beta_p, beta))
            total += (
                tangency * choose_alpha * choose_beta * _ch(d - 1, delta_p, alpha_p, beta_p)
            )
    return total


def caporaso_harris(d: int, delta: int, alpha: Vector = (), beta: Vector | None = None) -> int:
    """N^{d,delta}(alpha, beta) by the Caporaso-Harris recursion.

    N^{0,0}(0, 0) = 1, and N is 0 unless I(alpha) + I(beta) = d and
    delta >= 0.  Otherwise
      N^{d,delta}(alpha, beta) = sum_{k: beta_k > 0} k N^{d,delta}(alpha + e_k, beta - e_k)
        + sum I^{beta'-beta} C(alpha, alpha') C(beta', beta) N^{d-1,delta'}(alpha', beta'),
    the second sum over alpha' <= alpha and beta' >= beta with
    I(alpha') + I(beta') = d - 1 and delta' = delta - (d-1) + |beta' - beta|,
    where I^gamma = prod k^gamma_k and C(alpha, alpha') = prod C(alpha_k, alpha'_k).
    ``beta`` defaults to (d,), the ordinary Severi degree.
    """
    if beta is None:
        beta = (d,)
    return _ch(d, delta, _trim(alpha), _trim(beta))


def _real(k: int) -> int:
    """The quantum number [k]_y = (y^(k/2) - y^(-k/2)) / (y^(1/2) - y^(-1/2))
    at y = -1: 0 for even k and (-1)^((k-1)/2) for odd k."""
    return (-1) ** (k // 2) if k % 2 else 0


@lru_cache(maxsize=None)
def _ch_real(d: int, delta: int, alpha: Vector, beta: Vector) -> int:
    """``_ch`` refined at y = -1: every k the recursion multiplies by, in
    its first term and in its tangency product, is [k]_{-1}, so a term
    with an even tangency vanishes."""
    if delta < 0 or _weight(alpha) + _weight(beta) != d:
        return 0
    if d == 0:
        return 1 if delta == 0 else 0
    total = 0
    for k, b in enumerate(beta, start=1):
        if b and k % 2:
            total += _real(k) * _ch_real(d, delta, _shift(alpha, k, 1), _shift(beta, k, -1))
    for sub in product(*(range(a + 1) for a in alpha)):
        alpha_p = _trim(sub)
        free = d - 1 - _weight(alpha_p) - _weight(beta)
        if free < 0:
            continue
        choose_alpha = prod(comb(a, ap) for a, ap in zip(alpha, sub))
        for gamma in _vectors_of_weight(free, free):
            delta_p = delta - (d - 1) + sum(gamma)
            tangency = prod(_real(k) ** g for k, g in enumerate(gamma, start=1))
            if delta_p < 0 or not tangency:
                continue
            beta_p = _add(beta, gamma)
            choose_beta = prod(comb(bp, b) for bp, b in zip(beta_p, beta))
            total += (
                tangency * choose_alpha * choose_beta * _ch_real(d - 1, delta_p, alpha_p, beta_p)
            )
    return total


def _severi_points(d: int, real: bool = False) -> list[int]:
    """F_d[n] = N^{d,delta} with n = d(d+3)/2 - delta points, n = 0..d(d+3)/2;
    with ``real``, the recursion refined at y = -1."""
    top = d * (d + 3) // 2
    ch = _ch_real if real else _ch
    return [ch(d, top - n, (), (d,)) for n in range(top + 1)]


@lru_cache(maxsize=None)
def _severi_log(d: int, real: bool = False) -> tuple[int, ...]:
    """G_d[n], n = 0..d(d+3)/2: the degree-d part of the log of the Severi
    degrees' exponential series in the point count, from
    d G_d = d F_d - sum_{k<d} k G_k (*) F_{d-k}, where (*) is the binomial
    convolution in n; with ``real``, of the refined recursion's series."""
    total = [d * f for f in _severi_points(d, real)]
    for k in range(1, d):
        low, rest = _severi_log(k, real), _severi_points(d - k, real)
        for n in range(len(total)):
            total[n] -= k * sum(
                comb(n, i) * low[i] * rest[n - i]
                for i in range(min(n + 1, len(low)))
                if n - i < len(rest)
            )
    out = []
    for n, value in enumerate(total):
        share, rest = divmod(value, d)
        if rest:
            raise AssertionError(f"degree-{d} log: {d} does not divide {value} at {n} points")
        out.append(share)
    return tuple(out)


def gw_log_oracle(d: int, g: int) -> int:
    """gw(d, g) from ``caporaso_harris`` alone, by the exponential formula.

    A possibly reducible curve through n labelled points splits uniquely
    into irreducible components, each through 3 d_i + g_i - 1 of them, so
    sum_d F_d x^d = exp(sum_d G_d x^d) as exponential series in n, with
    G_d[n] = gw(d, n - 3d + 1) (Caporaso & Harris, Invent. Math. 131,
    1998, section 1).  Any g with 3d + g - 1 >= 0 is read, so the log can
    be checked to vanish below genus 0; past d(d+3)/2 points it is 0.
    """
    log = _severi_log(d)
    n = 3 * d + g - 1
    return log[n] if n < len(log) else 0


def welschinger_log_oracle(d: int, g: int = 0) -> int:
    """welschinger(d) from the Caporaso-Harris recursion alone.

    Block & Goettsche (Refined curve counting with tropical geometry,
    Compositio Math. 152, 2016) replace each k in the recursion by the
    quantum number [k]_y; at y = -1 a tropical curve counts with its real
    multiplicity, 1 when every edge weight is odd and 0 otherwise, so the
    refined Severi degrees are the odd-weight diagram sums.  The log of
    their exponential series, taken as ``gw_log_oracle`` takes it, gives
    the connected sums: W(d) at genus 0, n = 3d - 1, and at genus g the
    connected odd-weight sum through 3d - 1 + g points.
    """
    log = _severi_log(d, True)
    n = 3 * d + g - 1
    return log[n] if n < len(log) else 0


def _max_genus(d: int) -> int:
    return (d - 1) * (d - 2) // 2


def _split_terms(d: int, delta: int):
    """Every way a delta-nodal degree-d curve splits into components.

    Yields (ways, parts) for each multiset parts = ((d_j, delta_j), ...)
    with sum d_j = d and sum delta_j + sum_{j<j'} d_j d_j' = delta.  ways
    is the multinomial count of ways to share the d(d+3)/2 - delta points
    among the components, divided by the symmetry of repeated components.
    """
    n_markers = d * (d + 3) // 2 - delta

    def parts(prev: tuple[int, int], d_left: int, delta_left: int, acc: list):
        if d_left == 0:
            if delta_left:
                return
            ways = factorial(n_markers)
            for dj, deltaj in acc:
                ways //= factorial(dj * (dj + 3) // 2 - deltaj)
            for cnt in Counter(acc).values():
                ways //= factorial(cnt)
            yield ways, tuple(acc)
            return
        for dj in range(min(prev[0], d_left), 0, -1):
            pair_cost = dj * (d_left - dj)
            max_deltaj = min(_max_genus(dj), delta_left - pair_cost)
            start = prev[1] if dj == prev[0] else max_deltaj
            for deltaj in range(min(start, max_deltaj), -1, -1):
                acc.append((dj, deltaj))
                rest = delta_left - pair_cost - deltaj
                yield from parts((dj, deltaj), d_left - dj, rest, acc)
                acc.pop()

    yield from parts((d, delta), d, delta, [])


def _split_value(ways: int, parts: tuple[tuple[int, int], ...]) -> int:
    """One term of the splitting formula: ways times the components' gw."""
    return ways * prod(gw(dj, _max_genus(dj) - deltaj) for dj, deltaj in parts)


def severi_split_oracle(d: int, delta: int) -> int:
    """Severi degree via the splitting formula over unordered component data.

    Sums over multisets {(d_j, delta_j)} with sum d_j = d and
    sum delta_j + sum_{j<j'} d_j d_j' = delta; each multiset contributes a
    multinomial marker-set count divided by repetition symmetry, times the
    product of connected invariants.
    """
    if d < 1 or delta < 0:
        raise DiagramError(f"need d >= 1 and delta >= 0, got d={d}, delta={delta}")
    return sum(_split_value(ways, parts) for ways, parts in _split_terms(d, delta))


def distinct_orderings(partition: Partition) -> int:
    """Number of distinct permutations of the parts: len! / prod(mult!)."""
    ways = factorial(partition.length)
    for mult in Counter(partition.parts).values():
        ways //= factorial(mult)
    return ways


def closed_form_gmax(d: int, lam: Partition, rho: Partition) -> int:
    """Relative invariant at maximal genus: rho_1 rho_2 ... len(rho)!/prod(beta!)."""
    if lam.size + rho.size != d:
        raise DiagramError(
            f"|lambda| + |rho| must equal d: {lam.size} + {rho.size} != {d}"
        )
    return prod(rho.parts) * distinct_orderings(rho)


def closed_form_uninodal(d: int, lam: Partition, rho: Partition) -> int:
    """Relative invariant one below maximal genus, in closed form."""
    if lam.size + rho.size != d:
        raise DiagramError(
            f"|lambda| + |rho| must equal d: {lam.size} + {rho.size} != {d}"
        )
    if d < 3:
        raise DiagramError(f"uninodal closed form needs d >= 3, got {d}")
    alpha1 = lam.count(1)
    if rho.length == 0:
        return (d - 2) * (3 * d - 2) + alpha1
    beta1 = rho.count(1)
    value = (
        Fraction((d - 2) * (3 * d - 2) + alpha1 + beta1)
        + Fraction((d - 1) * beta1, rho.length)
    ) * closed_form_gmax(d, lam, rho)
    if value.denominator != 1:
        raise AssertionError(f"uninodal closed form must be integral, got {value}")
    return int(value)


def collinear_triple(d: int, g: int) -> int:
    """Curves through a generic triple of collinear points: N(d,g) - (d-1) N(d-1,g)."""
    if d < 3:
        raise DiagramError(f"collinear-triple formula needs d >= 3, got {d}")
    return gw(d, g) - (d - 1) * gw(d - 1, g)


def _sequences(delta: int, room: int):
    """Ordered tuples of templates with cogenera summing to delta and
    lengths summing to at most room.

    A longer sequence contributes nothing at degree room: its offsets need
    k_1 >= 1, k_{i+1} >= k_i + length_i and k_m <= room + eps - length_m
    with eps <= 1.
    """
    if delta == 0:
        yield ()
        return
    for first in range(1, delta + 1):
        for head in enumerate_templates(first):
            if head.length <= room:
                for tail in _sequences(delta - first, room - head.length):
                    yield (head, *tail)


def severi_numeric(d: int, delta: int) -> int:
    """Severi degree via the template master sum with explicit offsets."""
    if d < 1 or delta < 1:
        raise DiagramError(f"need d >= 1 and delta >= 1, got d={d}, delta={delta}")
    total = 0
    for seq in _sequences(delta, d):
        polys = [extension_polynomial(t) for t in seq]
        mu = prod(t.multiplicity for t in seq)
        m = len(seq)

        def offsets(i: int, k_floor: int, acc: int):
            nonlocal total
            if i == m:
                total += mu * acc
                return
            t = seq[i]
            lo = max(t.k_min, k_floor)
            if i == m - 1:
                hi = d + t.epsilon - t.length
            else:
                # leave room for the remaining templates
                room = sum(s.length for s in seq[i + 1 :])
                hi = d + seq[-1].epsilon - t.length - room
            for k in range(lo, hi + 1):
                value = polys[i].eval_int(k)
                if value:
                    offsets(i + 1, k + t.length, acc * value)

        offsets(0, 1, 1)
    return total


def template_groups_oracle(cogenus: int) -> dict:
    """The groups of one cogenus in ``nodepoly._template_groups``, one
    template at a time: each template's extension polynomial, times its
    multiplicity, added to its (length, k_min, epsilon) group.  The sweep
    gives every cogenus up to its cap at once; this gives one."""
    groups: dict = {}
    for t in enumerate_templates(cogenus):
        key = (t.length, t.k_min, t.epsilon)
        scaled = tuple(t.multiplicity * c for c in _extension_newton(t))
        groups[key] = _newton_add(groups.get(key, ()), scaled)
    return groups


def shift_argument(p: RatPolynomial, c) -> RatPolynomial:
    """Return p(x + c)."""
    result = RatPolynomial(())
    xc = RatPolynomial((Fraction(c), Fraction(1)))
    power = RatPolynomial((Fraction(1),))
    for coeff in p.coefficients:
        result = result + power.scale(coeff)
        power = power * xc
    return result


def exp_series(aj: list[RatPolynomial]) -> list[RatPolynomial]:
    """Rebuild the node-polynomial series from A_j data (round-trip check).

    With L_j = A_j / j, the series F = exp(sum L_j t^j) satisfies
    j F_j = sum_{i=1}^{j} i L_i F_{j-i}.
    """
    n = len(aj)
    ls = [aj[j].scale(Fraction(1, j + 1)) for j in range(n)]
    out = [RatPolynomial.constant(1)]
    for j in range(1, n + 1):
        acc = RatPolynomial(())
        for i in range(1, j + 1):
            acc = acc + ls[i - 1].scale(i) * out[j - i]
        out.append(acc.scale(Fraction(1, j)))
    return out


# -- one diagram at a time ----------------------------------------------------


def edge_sets_oracle(
    d: int, n_edges: int, require_connected: bool = False
) -> list[tuple[Edge, ...]]:
    """All edge multisets on 1..d with n_edges edges, src < tgt and
    divergence <= 1, each tuple sorted, depth first with no memo.

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


@lru_cache(maxsize=None)
def kontsevich_oracle(d: int) -> int:
    """Genus-0 invariant via the quadratic recursion, seeded with N(1,0)=1."""
    if d < 1:
        raise DiagramError(f"degree must be positive, got {d}")
    if d == 1:
        return 1
    total = 0
    for k in range(1, d):
        l = d - k
        total += (
            kontsevich_oracle(k)
            * kontsevich_oracle(l)
            * k * k * l
            * (l * comb(3 * d - 4, 3 * k - 2) - k * comb(3 * d - 4, 3 * k - 1))
        )
    return total


def welschinger_oracle(d: int) -> int:
    """Signed real rational curve count: marking counts of odd genus-0 diagrams."""
    if d < 1:
        raise DiagramError(f"degree must be positive, got {d}")
    total = 0
    for diag in enumerate_diagrams(DiagramQuery(d, genus=0, filter="odd")):
        total += count_markings(diag)
    return total


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


def _poset_elements(poset: MarkingPoset) -> list[tuple]:
    """Element ids, in the order of ``poset.element_labels()``."""
    return ([("F", v) for v in range(1, poset.d + 1)] + [("M", *m) for m in poset.midpoints]
            + [("S", *s) for s in poset.sinks] + [("L", i) for i, _, _ in poset.lambda_vertices])


def ordering_count_with_pinned_sinks(diag: FloorDiagram, floor: int, k: int) -> int:
    """Orderings of the ordinary poset with k weight-1 sinks of ``floor``
    removed and pinned above everything, divided by the reduced symmetry.

    Counts ordinary markings whose top k elements are sinks of ``floor``.
    """
    dist = next(distributions_oracle(diag, Partition(()), Partition.ones(diag.d)))
    poset = build_poset(diag, dist, Partition(()))
    b = sum(1 for v, w, _ in poset.sinks if v == floor and w == 1)
    if b < k:
        return 0
    kept = tuple(
        s for s in poset.sinks if not (s[0] == floor and s[1] == 1 and s[2] >= b - k)
    )
    reduced = MarkingPoset(
        poset.d,
        poset.midpoints,
        kept,
        poset.lambda_vertices,
        poset.symmetry // (factorial(b) // factorial(b - k)),
    )
    raw = count_orderings(reduced)
    if raw % reduced.symmetry:
        raise AssertionError("symmetry must divide the pinned ordering count")
    return raw // reduced.symmetry


def tangency_at_point(d: int, g: int, k: int) -> int:
    """Order-k tangency at a fixed point of a fixed line.

    Computed two ways: the ordinary-marking sum restricted to markings
    whose top k elements are sinks of one common floor, and the relative
    invariant with lambda=(k).  Both must agree.
    """
    if not 1 <= k <= d - 1:
        raise DiagramError(f"need 1 <= k <= d-1, got k={k}, d={d}")
    filtered = 0
    for diag in enumerate_diagrams(DiagramQuery(d, genus=g)):
        part = sum(
            ordering_count_with_pinned_sinks(diag, v, k) for v in range(1, d + 1)
        )
        filtered += diag.multiplicity() * part
    direct = relative_gw(d, g, Partition((k,)), Partition.ones(d - k))
    if filtered != direct:
        raise AssertionError(
            f"tangency routes disagree for (d,g,k)=({d},{g},{k}): "
            f"{filtered} != {direct}"
        )
    return direct


def distributions_oracle(diag: FloorDiagram, lam: Partition, rho: Partition):
    """Yield every distribution of new edges, each exactly once, placing
    the lambda indices one at a time and then each floor's sinks.

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
    budgets = [1 - dv for dv in diag.divergences()]

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


@lru_cache(maxsize=None)
def _gap_choices(mandatory: int, counts: tuple[int, ...]) -> tuple:
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
def gap_dp_oracle(d: int, windows: tuple[tuple[int, int], ...]) -> int:
    """Number of linear orders: items assigned to gaps within their windows,
    summed over assignments with a factorial per within-gap arrangement.

    DP over gaps; multi-gap items pending in the state are keyed only by
    their deadline gap (items of equal deadline are interchangeable, which
    the binomial factors account for).  Each gap is one ``_gap_choices``
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
            for rest, ways in _gap_choices(mandatory, counts):
                key = tuple((h, c) for h, c in zip(deadlines, rest) if c)
                new_states[key] = new_states.get(key, 0) + coeff * ways
        states = new_states
    if set(states) - {()}:
        raise AssertionError(f"items left pending past gap {d}: {sorted(states)}")
    return states.get((), 0)


def count_orderings_downset(poset: MarkingPoset) -> int:
    """Independent sequential counter used as a safety net for ``count_orderings``."""
    d = poset.d
    classes = sorted(Counter(poset.windows()).items())
    counts = tuple(c for _, c in classes)

    @lru_cache(maxsize=None)
    def rec(f: int, placed: tuple[int, ...]) -> int:
        if f == d and placed == counts:
            return 1
        total = 0
        if f < d and all(
            placed[i] == counts[i] for i, ((lo, hi), _) in enumerate(classes) if hi <= f
        ):
            total += rec(f + 1, placed)
        for i, ((lo, hi), c) in enumerate(classes):
            if lo <= f <= hi and placed[i] < c:
                nxt = placed[:i] + (placed[i] + 1,) + placed[i + 1 :]
                total += (c - placed[i]) * rec(f, nxt)
        return total

    # everything left of floor 1 is empty: start after placing floor 1
    result = rec(1, (0,) * len(classes))
    rec.cache_clear()
    return result


def _decorated_edges(poset: MarkingPoset):
    """Weighted edge list of the decorated graph, for automorphism checks."""
    edges = []
    for s, t, w, c in poset.midpoints:
        m = ("M", s, t, w, c)
        edges.append((("F", s), m, w))
        edges.append((m, ("F", t), w))
    for v, w, c in poset.sinks:
        edges.append((("F", v), ("S", v, w, c), w))
    for i, src, w in poset.lambda_vertices:
        edges.append((("F", src), ("L", i), w))
    return edges


def _automorphisms(poset: MarkingPoset):
    """All decorated-graph automorphisms fixing floors and lambda vertices.

    Candidates are products of permutations within same-floor equal-weight
    sink classes and parallel-edge midpoint classes; each candidate is
    verified to preserve the weighted edge multiset.
    """
    sink_classes: dict[tuple[int, int], list] = {}
    for v, w, c in poset.sinks:
        sink_classes.setdefault((v, w), []).append(("S", v, w, c))
    mid_classes: dict[tuple[int, int, int], list] = {}
    for s, t, w, c in poset.midpoints:
        mid_classes.setdefault((s, t, w), []).append(("M", s, t, w, c))
    groups = [g for g in list(sink_classes.values()) + list(mid_classes.values())]
    base_edges = Counter(_decorated_edges(poset))
    autos = []
    for perms in product(*(permutations(g) for g in groups)):
        mapping = {}
        for group, perm in zip(groups, perms):
            for a, b in zip(group, perm):
                mapping[a] = b
        mapped = Counter(
            (mapping.get(a, a), mapping.get(b, b), w) for a, b, w in base_edges.elements()
        )
        if mapped == base_edges:
            autos.append(mapping)
    return autos


def _poset_constraints(poset: MarkingPoset) -> list:
    """Strict order constraints (a must precede b) between the element ids
    of ``_poset_elements``."""
    floors = [("F", v) for v in range(1, poset.d + 1)]
    mids = [("M", s, t, w, c) for s, t, w, c in poset.midpoints]
    sinks = [("S", v, w, c) for v, w, c in poset.sinks]
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
    return constraints


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


def marking_orbits_oracle(
    diag: FloorDiagram, lam: Partition, rho: Partition
) -> list[tuple[str, ...]]:
    """Label sequence of a canonical representative of every marking orbit,
    by explicit enumeration of distributions, linear orders and
    automorphisms: each orbit is represented by the minimum of its linear
    orders.  Refuses posets with more than BRUTE_FORCE_LIMIT elements.
    """
    n_elements = diag.d + len(diag.edges) + lam.length + rho.length
    if n_elements > BRUTE_FORCE_LIMIT:
        raise DiagramError(
            f"brute force limited to {BRUTE_FORCE_LIMIT} elements, got {n_elements}"
        )
    reps: list[tuple[str, ...]] = []
    for dist in distributions_oracle(diag, lam, rho):
        poset = build_poset(diag, dist, lam)
        elements = _poset_elements(poset)
        label = dict(zip(elements, poset.element_labels()))
        autos = _automorphisms(poset)
        seen = set()
        for ext in _linear_extensions(elements, _poset_constraints(poset)):
            canon = min(tuple(a.get(e, e) for e in ext) for a in autos)
            seen.add(canon)
        reps.extend(tuple(label[e] for e in canon) for canon in sorted(seen))
    return reps


def brute_force_markings(diag: FloorDiagram, lam: Partition, rho: Partition) -> int:
    """Count markings by explicit orbit enumeration; independent oracle."""
    return len(marking_orbits_oracle(diag, lam, rho))


def increasing_tree_diagrams(d: int) -> Iterable[FloorDiagram]:
    """Floor diagrams of increasing rooted trees on 1..d.

    Every non-root vertex points to a larger parent; the edge weight is the
    vertex's hooklength (its number of weak descendants).
    """
    if d == 1:
        yield FloorDiagram(1, ())
        return

    def rec(v: int, parents: list[int]):
        if v == d:
            # parents are strictly larger, so ascending order completes each
            # subtree before its weight is pushed upward
            weights = [1] * (d + 1)
            for u in range(1, d):
                weights[parents[u]] += weights[u]
            yield FloorDiagram(
                d, tuple((u, parents[u], weights[u]) for u in range(1, d))
            )
            return
        for p in range(v + 1, d + 1):
            parents[v] = p
            yield from rec(v + 1, parents)

    yield from rec(1, [0] * d)


def increasing_tree_oracle(d: int) -> int:
    """z(d) recomputed as sum of mu * nu over increasing-tree diagrams."""
    if d > 7:
        raise DiagramError(f"increasing-tree oracle limited to d <= 7, got {d}")
    total = 0
    for diag in increasing_tree_diagrams(d):
        total += diag.multiplicity() * count_markings(diag)
    return total


@lru_cache(maxsize=None)
def max_tangency_compositions_oracle(d: int) -> int:
    """z(d) from the paper's recurrence, summed over compositions.

    z(n+1) = sum_k (2n)!/k! sum over compositions of n into k positive parts
    of prod a_i^2 z(a_i) / (2 a_i)!  with z(1) = 1.
    """
    if d < 1:
        raise DiagramError(f"degree must be positive, got {d}")
    if d == 1:
        return 1
    n = d - 1
    terms = [Fraction(0)] + [
        Fraction(a * a * max_tangency_compositions_oracle(a), factorial(2 * a))
        for a in range(1, n + 1)
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


# -- the recursive tree bijection ---------------------------------------------


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


def diagram_to_tree_oracle(diag: FloorDiagram) -> LabeledTree:
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


def tree_to_diagram_oracle(tree: LabeledTree) -> FloorDiagram:
    """Inverse of diagram_to_tree_oracle."""
    vertices = tuple(range(1, tree.d + 1))
    return FloorDiagram(tree.d, _tree_to_diag_edges(vertices, tree.edges))


def floor_height(floor: FloorCurve, x: Fraction) -> Fraction:
    """The floor's y at ``x``, read on the segment left of the first
    breakpoint at or right of ``x``, else on the segment right of the last."""
    if not floor.breakpoints:
        return floor.anchor[1] + floor.slopes[0] * (x - floor.anchor[0])
    for i, (bx, by) in enumerate(floor.breakpoints):
        if x <= bx:
            return by + floor.slopes[i] * (x - bx)
    bx, by = floor.breakpoints[-1]
    return by + floor.slopes[-1] * (x - bx)


def sketch_svg_oracle(sketch: TropicalCurveSketch) -> str:
    """Floors as polylines with rays, elevators as vertical strokes."""
    xs: list[Fraction] = []
    ys: list[Fraction] = []
    for f in sketch.floors:
        xs.extend([p[0] for p in f.breakpoints] + [f.anchor[0]])
        ys.extend([p[1] for p in f.breakpoints] + [f.anchor[1]])
    for e in sketch.elevators:
        xs.append(e.x)
        ys.extend([e.top, e.point[1]] + ([e.bottom] if e.bottom is not None else []))
    x_lo, x_hi = min(xs) - 1, max(xs) + 1
    y_lo, y_hi = min(ys), max(ys)
    y_lo -= (y_hi - y_lo) / 10 + 1
    y_hi += (y_hi - y_lo) / 10 + 1
    inner = SKETCH_SIZE - 2 * MARGIN

    def sx(x: Fraction) -> float:
        return MARGIN + float((x - x_lo) / (x_hi - x_lo)) * inner

    def sy(y: Fraction) -> float:
        return MARGIN + float((y_hi - y) / (y_hi - y_lo)) * inner

    body = []
    for f in sketch.floors:
        pts = list(f.breakpoints)
        if not pts:
            pts = [f.anchor]
        left = (x_lo, floor_height(f, x_lo))
        right = (x_hi, floor_height(f, x_hi))
        chain = [left, *pts, right]
        path = "M " + " L ".join(f"{_fmt(sx(x))} {_fmt(sy(y))}" for x, y in chain)
        body.append(
            f'<path d="{path}" fill="none" stroke="{STROKE}" stroke-width="2"/>'
        )
        ax, ay = f.anchor
        body.append(
            f'<circle cx="{_fmt(sx(ax))}" cy="{_fmt(sy(ay))}" r="{DOT + 1}" '
            f'fill="white" stroke="{STROKE}" stroke-width="2"/>'
        )
    for e in sketch.elevators:
        bottom = e.bottom if e.bottom is not None else y_lo
        body.append(
            f'<line x1="{_fmt(sx(e.x))}" y1="{_fmt(sy(e.top))}" '
            f'x2="{_fmt(sx(e.x))}" y2="{_fmt(sy(bottom))}" '
            f'stroke="{ACCENT}" stroke-width="{1 + e.weight}"/>'
        )
        px, py = e.point
        body.append(
            f'<circle cx="{_fmt(sx(px))}" cy="{_fmt(sy(py))}" r="{DOT}" '
            f'fill="{ACCENT}"/>'
        )
        if e.weight > 1:
            body.append(
                f'<text x="{_fmt(sx(e.x) + 6)}" y="{_fmt((sy(e.top) + sy(bottom)) / 2)}" '
                f'font-size="13">{e.weight}</text>'
            )
    return _svg(SKETCH_SIZE, SKETCH_SIZE, body)


def reconstruct_oracle(
    diag: FloorDiagram, order: tuple[str, ...], config: StretchedConfig
) -> TropicalCurveSketch:
    """Build the unique tropical curve through the configuration realizing
    the given marking (highest point corresponds to the smallest element)."""
    genus = diag.genus()
    if (config.d, config.g) != (diag.d, genus):
        raise DiagramError(
            f"configuration is for (d,g)=({config.d},{config.g}), "
            f"diagram has ({diag.d},{genus})"
        )
    floor_labels, items = ordinary_labels(diag)
    order, pos = checked_order(diag, order)
    n = len(order)
    point_of = {label: config.points[n - 1 - pos[label]] for label in order}

    # black neighbors per floor: (position, label, signed weight); sign +w for
    # an elevator from above (incoming edge), -w from below (outgoing or sink)
    neighbors: dict[int, list[tuple[int, str, int]]] = {v: [] for v in range(1, diag.d + 1)}
    for label, (upper, lower, w) in items.items():
        neighbors[upper].append((pos[label], label, -w))
        if lower is not None:
            neighbors[lower].append((pos[label], label, +w))

    floors: list[FloorCurve] = []
    height_at: dict[tuple[int, str], Fraction] = {}  # (floor, label) -> y
    for v, floor_label in enumerate(floor_labels, start=1):
        nbrs = sorted(neighbors[v])  # ascending position = right to left
        slope = Fraction(1)
        right_to_left = []  # (x, slope left of this breakpoint)
        for _, label, signed in nbrs:
            slope += signed
            right_to_left.append((point_of[label][0], slope))
        if slope != 0:
            raise AssertionError(f"floor {v} does not end with slope 0")
        labels = [label for _, label, _ in reversed(nbrs)]
        breaks_x = [x for x, _ in reversed(right_to_left)]
        slopes = [s for _, s in reversed(right_to_left)] + [Fraction(1)]
        ax, ay = point_of[floor_label]
        region = sum(1 for x in breaks_x if x < ax)
        ys: list[Optional[Fraction]] = [None] * len(breaks_x)
        y = ay
        x_cur = ax
        for i in range(region - 1, -1, -1):  # walk left from the anchor
            y = y + slopes[i + 1] * (breaks_x[i] - x_cur)
            x_cur = breaks_x[i]
            ys[i] = y
        y = ay
        x_cur = ax
        for i in range(region, len(breaks_x)):  # walk right
            y = y + slopes[i] * (breaks_x[i] - x_cur)
            x_cur = breaks_x[i]
            ys[i] = y
        height_at.update(((v, label), yy) for label, yy in zip(labels, ys))
        floors.append(
            FloorCurve(
                v,
                (ax, ay),
                tuple((x, yy) for x, yy in zip(breaks_x, ys)),
                tuple(slopes),
            )
        )

    # each black point is a breakpoint of the floors its elevator meets, so
    # the walk above already has the elevator's ends
    elevators = []
    for label in order:
        if label not in items:
            continue
        upper, lower, w = items[label]
        x, y = point_of[label]
        top = height_at[(upper, label)]
        if lower is None:
            bottom = None
            if not y < top:
                raise AssertionError(f"black point of {label} must lie below floor {upper}")
        else:
            bottom = height_at[(lower, label)]
            if not bottom < y < top:
                raise AssertionError(f"black point of {label} must lie on its elevator")
        elevators.append(Elevator(label, x, w, upper, lower, top, bottom, (x, y)))
    return TropicalCurveSketch(diag.d, genus, tuple(floors), tuple(elevators), order)


def verify_curve_oracle(sketch: TropicalCurveSketch, d: int, g: int) -> CurveReport:
    """Balancing, endpoint slopes, unbounded-direction census, degree, genus,
    a failed check for each floor segment or anchor off the floor's slopes,
    one for each elevator end off ``floor_height`` of a floor it meets
    (read only on floors with no failed segment or anchor), and one for
    each black point off its elevator."""
    checks: list[CurveCheck] = []
    bent: set[int] = set()
    for floor in sketch.floors:
        ok = floor.slopes[0] == 0 and floor.slopes[-1] == 1
        checks.append(
            CurveCheck(
                f"floor {floor.vertex} end slopes",
                ok,
                f"left {floor.slopes[0]}, right {floor.slopes[-1]}",
            )
        )
        bound_ok = all(abs(s) <= d for s in floor.slopes)
        checks.append(CurveCheck(f"floor {floor.vertex} slope bound", bound_ok))
        pairs = zip(floor.breakpoints, floor.breakpoints[1:], floor.slopes[1:])
        for (px, py), (bx, by), slope in pairs:
            if by - py != slope * (bx - px):
                bent.add(floor.vertex)
                checks.append(
                    CurveCheck(
                        f"floor {floor.vertex} segment to x={bx}",
                        False,
                        f"({px}, {py}) to ({bx}, {by}) off slope {slope}",
                    )
                )
        ax, ay = floor.anchor
        if floor_height(floor, ax) != ay:
            bent.add(floor.vertex)
            checks.append(
                CurveCheck(f"floor {floor.vertex} anchor", False, f"({ax}, {ay}) off the floor")
            )
    at_x: dict[Fraction, list[Elevator]] = {}
    for e in sketch.elevators:
        at_x.setdefault(e.x, []).append(e)
    for floor in sketch.floors:
        for i, (bx, _) in enumerate(floor.breakpoints):
            s_left, s_right = floor.slopes[i], floor.slopes[i + 1]
            hit = [
                e
                for e in at_x.get(bx, ())
                if floor.vertex in (e.upper_floor, e.lower_floor)
            ]
            if len(hit) != 1:
                checks.append(
                    CurveCheck(
                        f"floor {floor.vertex} breakpoint at x={bx}",
                        False,
                        f"{len(hit)} elevators meet it",
                    )
                )
                continue
            e = hit[0]
            vertical = e.weight if e.lower_floor == floor.vertex else -e.weight
            balanced = (s_right - s_left + vertical) == 0
            checks.append(
                CurveCheck(
                    f"balancing at floor {floor.vertex}, x={bx}",
                    balanced,
                    f"slopes {s_left}->{s_right}, elevator {e.label} ({vertical:+})",
                )
            )
            if floor.vertex in bent:
                continue
            height = floor_height(floor, e.x)
            if floor.vertex == e.upper_floor and e.top != height:
                end = e.top
            elif floor.vertex == e.lower_floor and e.bottom != height:
                end = e.bottom
            else:
                continue
            checks.append(
                CurveCheck(
                    f"elevator {e.label} end at floor {floor.vertex}",
                    False,
                    f"y={end}, floor at y={height}",
                )
            )
    left_rays = sum(1 for f in sketch.floors if f.slopes[0] == 0)
    right_rays = sum(1 for f in sketch.floors if f.slopes[-1] == 1)
    floors = len(sketch.floors)
    ground_weight = sum(e.weight for e in sketch.elevators if e.lower_floor is None)
    checks.append(
        CurveCheck("census (-1,0)", left_rays == d, f"{left_rays} of {d}")
    )
    checks.append(
        CurveCheck("census (1,1)", right_rays == d, f"{right_rays} of {d}")
    )
    checks.append(
        CurveCheck("census (0,-1)", ground_weight == d, f"weight {ground_weight} of {d}")
    )
    checks.append(CurveCheck("degree", floors == d, f"{floors}"))
    bounded = [e for e in sketch.elevators if e.lower_floor is not None]
    comps = len(
        components(
            (f.vertex for f in sketch.floors),
            ((e.upper_floor, e.lower_floor) for e in bounded),
        )
    )
    betti = len(bounded) - floors + comps
    checks.append(CurveCheck("genus", betti == g, f"betti {betti} of {g}"))
    for e in sketch.elevators:
        x, y = e.point
        above_bottom = e.bottom is None or e.bottom < y
        if x != e.x or not (above_bottom and y < e.top):
            checks.append(
                CurveCheck(
                    f"elevator {e.label} point",
                    False,
                    f"({x}, {y}) off x={e.x}, y from {e.bottom} to {e.top}",
                )
            )
    return CurveReport(tuple(checks))


def copy_with(value, **changes):
    """A copy of a value record with the named fields changed, built through
    its class's constructor, so that every check runs again."""
    fields = {name: getattr(value, name) for name in type(value).__slots__}
    return type(value)(**{**fields, **changes})


def perturb_elevator(sketch: TropicalCurveSketch, index: int, delta: int) -> TropicalCurveSketch:
    """Return a sketch with one elevator weight changed (for fault-injection tests)."""
    elevators = list(sketch.elevators)
    elevators[index] = copy_with(elevators[index], weight=elevators[index].weight + delta)
    return copy_with(sketch, elevators=tuple(elevators))


def extract_marking(sketch: TropicalCurveSketch) -> tuple[FloorDiagram, tuple[str, ...]]:
    """Recover the diagram and marking order from a sketch (round trip)."""
    floors = sorted(sketch.floors, key=lambda f: -f.anchor[1])
    vertex_of = {f.vertex: i + 1 for i, f in enumerate(floors)}
    edges = []
    for e in sketch.elevators:
        if e.lower_floor is not None:
            edges.append((vertex_of[e.upper_floor], vertex_of[e.lower_floor], e.weight))
    diag = FloorDiagram(len(floors), tuple(sorted(edges)))
    entries: list[tuple[Fraction, str]] = []
    for f in floors:
        entries.append((f.anchor[1], f"v{vertex_of[f.vertex]}"))
    for e in sketch.elevators:
        if e.lower_floor is None:
            entries.append((e.point[1], f"s{vertex_of[e.upper_floor]}w{e.weight}#0"))
        else:
            entries.append(
                (
                    e.point[1],
                    f"e{vertex_of[e.upper_floor]}-{vertex_of[e.lower_floor]}w{e.weight}#0",
                )
            )
    entries.sort(key=lambda t: -t[0])
    return diag, canonical_marking(tuple(label for _, label in entries))


# -- frozen-table readers only the tests use ----------------------------------


def severi_reducible_entries() -> set[tuple[int, int]]:
    """The (d, delta) entries the frozen Severi table marks reducible."""
    return {tuple(e) for e in _load("severi_table.json")["reducible"]}


def appendix_counts() -> dict[tuple[int, int], int]:
    """The frozen appendix's connected diagram count for each (d, g)."""
    return {
        tuple(int(x) for x in key.split(",")): value
        for key, value in _load("appendix_a.json")["counts"].items()
    }
