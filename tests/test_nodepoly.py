import itertools
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floordiagrams.core import DiagramError
from floordiagrams.invariants import severi
from floordiagrams.nodepoly import (
    RatPolynomial,
    Template,
    _from_newton,
    _newton_mul,
    _newton_shift,
    _newton_sum,
    _newton_values,
    _template_groups,
    aj_polynomials,
    discrete_sum,
    enumerate_templates,
    extension_polynomial,
    node_polynomial,
)
from floordiagrams.oracles import (
    exp_series,
    severi_numeric,
    shift_argument,
    template_groups_oracle,
)
from floordiagrams.tables import aj_reference, template_rows

from conftest import run_optimized

F = Fraction


# -- exact polynomial arithmetic -----------------------------------------------


def test_polynomial_normalization():
    assert RatPolynomial((1, 2, 0, 0)).degree == 1
    assert RatPolynomial(()).degree == -1
    assert str(RatPolynomial((F(-1), F(1)))) == "x - 1"


def test_polynomial_arithmetic():
    p = RatPolynomial((1, 1))
    q = RatPolynomial((-1, 1))
    assert (p * q) == RatPolynomial((-1, 0, 1))
    assert (p + q) == RatPolynomial((0, 2))
    assert shift_argument(p, 3) == RatPolynomial((4, 1))
    assert p.scale(F(1, 2))(1) == F(1)


def test_eval_int_guards_integrality():
    half = RatPolynomial((F(1, 2),))
    with pytest.raises(AssertionError):
        half.eval_int(1)


def test_eval_int_check_survives_optimize():
    code = (
        "from fractions import Fraction; from floordiagrams.nodepoly import RatPolynomial; "
        "RatPolynomial((Fraction(1, 2),)).eval_int(1)"
    )
    proc = run_optimized(code)
    assert proc.returncode != 0 and "AssertionError: polynomial at 1: 2 leaves 1" in proc.stderr


def test_discrete_sum_examples():
    one = RatPolynomial.constant(1)
    k = RatPolynomial.identity()
    assert discrete_sum(one, 1, 0) == RatPolynomial((0, 1))          # n
    assert discrete_sum(k, 1, 0) == RatPolynomial((0, F(1, 2), F(1, 2)))  # n(n+1)/2
    assert discrete_sum(RatPolynomial((1, 2)), 1, 1) == RatPolynomial((-1, 0, 1))


@given(
    st.lists(st.integers(-4, 4), min_size=1, max_size=4),
    st.integers(0, 3),
    st.integers(0, 2),
)
@settings(max_examples=60, deadline=None)
def test_discrete_sum_matches_direct_summation(coeffs, a, shift):
    p = RatPolynomial(tuple(F(c) for c in coeffs))
    q = discrete_sum(p, a, shift)
    for n in range(a + shift - 1, a + shift + 6):
        direct = sum((p(k) for k in range(a, n - shift + 1)), F(0))
        assert q(n) == direct, (coeffs, a, shift, n)


newton = st.lists(st.integers(-30, 30), max_size=5).map(tuple)


@given(newton, newton, st.integers(-3, 3), st.integers(-2, 3), st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_integer_kernels_match_rational_arithmetic(p, q, c, a, shift):
    # p and q are integer-valued polynomials, as binomial-basis coefficients
    P, Q = _from_newton(p), _from_newton(q)
    for x in range(-3, 8):
        binomials = [F(prod(range(x - m + 1, x + 1)), factorial(m)) for m in range(len(p))]
        assert P(x) == sum(b * c for b, c in zip(p, binomials))
    assert _newton_values(p, 8) == [P(k) for k in range(8)]
    assert _from_newton(_newton_mul(p, q)) == P * Q
    assert _from_newton(_newton_shift(p, c)) == shift_argument(P, c)
    summed = _from_newton(_newton_sum(p, a, shift))
    for n in range(a + shift - 1, a + shift + 6):
        assert summed(n) == sum((P(k) for k in range(a, n - shift + 1)), F(0)), (p, a, shift, n)


def test_discrete_sum_raises_degree_by_one():
    p = RatPolynomial((1, 2, 3))
    assert discrete_sum(p, 0, 0).degree == p.degree + 1


# -- templates -----------------------------------------------------------------


def test_template_census_delta_1_and_2():
    assert len(enumerate_templates(1)) == 2
    assert len(enumerate_templates(2)) == 7
    assert enumerate_templates(0) == ()


def test_template_figure_rows():
    known = {tuple(tuple(e) for e in row["edges"]): row for row in template_rows()}
    produced = {t.edges: t for t in enumerate_templates(1) + enumerate_templates(2)}
    assert set(produced) == set(known)
    for edges, row in known.items():
        t = produced[edges]
        assert t.stats() == (
            row["ell"],
            row["mu"],
            row["eps"],
            tuple(row["kappa"]),
            row["k_min"],
        )
        expect = RatPolynomial(tuple(F(c) for c in row["P"]))
        assert extension_polynomial(t) == expect, edges


def test_template_validation():
    with pytest.raises(DiagramError):
        Template(())
    with pytest.raises(DiagramError):
        Template(((0, 1, 1),))  # weight-1 unit span
    with pytest.raises(DiagramError):
        Template(((1, 2, 2),))  # must start at v_0
    with pytest.raises(DiagramError):
        Template(((0, 1, 2), (2, 3, 2)))  # vertex 2 not straddled
    with pytest.raises(DiagramError):
        Template(((1, 0, 2),))
    with pytest.raises(DiagramError):
        Template(((0, 2, 1.5),))  # was truncated to weight 1
    with pytest.raises(DiagramError, match=r"^template edge \(0,2,0\) needs positive weight$"):
        Template(((0, 2, 0),))


def brute_force_templates(delta):
    """Independent generator: filter all bounded edge multisets directly."""
    universe = [
        (i, j, w)
        for i in range(0, delta + 1)
        for j in range(i + 1, delta + 2)
        for w in range(1, delta + 2)
        if 1 <= (j - i) * w - 1 <= delta
    ]
    out = set()
    for size in range(1, delta + 1):
        for combo in itertools.combinations_with_replacement(universe, size):
            if sum((j - i) * w - 1 for i, j, w in combo) != delta:
                continue
            try:
                out.add(Template(tuple(combo)).edges)
            except DiagramError:
                continue
    return out


def test_template_census_delta_3_against_brute_force():
    fast = {t.edges for t in enumerate_templates(3)}
    assert fast == brute_force_templates(3)


def test_extension_polynomial_counts_concrete_markings():
    # evaluate P at several offsets and compare against a direct ordering
    # count of the chunk poset built with k+g-1-kappa_g short edges per gap
    from floordiagrams.markings import _gap_dp
    from math import factorial

    for t in enumerate_templates(1) + enumerate_templates(2):
        poly = extension_polynomial(t)
        ell = t.length
        kappa = t.kappa
        for k in range(t.k_min, t.k_min + 5):
            windows = []
            for g in range(1, ell + 1):
                windows.extend([(g, g)] * (k + g - 1 - kappa[g - 1]))
            for i, j, _ in t.edges:
                windows.append((i + 1, j))
            raw = _gap_dp(ell, tuple(sorted(windows)))
            sym = 1
            for g in range(1, ell + 1):
                sym *= factorial(k + g - 1 - kappa[g - 1])
            seen = {}
            for e in t.edges:
                seen[e] = seen.get(e, 0) + 1
            for cnt in seen.values():
                sym *= factorial(cnt)
            assert poly(k) == F(raw, sym), (t.edges, k)


# -- the master sum and symbolic polynomials ------------------------------------


def test_severi_numeric_uninodal_row():
    for d in range(2, 8):
        assert severi_numeric(d, 1) == 3 * (d - 1) ** 2


def test_severi_numeric_examples():
    assert severi_numeric(4, 2) == 225
    assert severi_numeric(3, 2) == 21


def test_severi_numeric_matches_diagram_enumeration():
    for d in range(1, 5):
        for delta in range(1, 5):
            assert severi_numeric(d, delta) == severi(d, delta), (d, delta)


def test_extension_symmetry_check_survives_optimize():
    # an edge symmetry off by a factor of two leaves a remainder in the values
    code = (
        "import math; from floordiagrams import nodepoly as np; "
        "np.factorial = lambda n: 2 * math.factorial(n); "
        "np.extension_polynomial(np.Template(((0, 2, 1), (0, 2, 1))))"
    )
    proc = run_optimized(code)
    assert proc.returncode != 0 and "AssertionError: template" in proc.stderr


@pytest.mark.parametrize("delta", range(1, 7))
def test_template_sweep_equals_one_template_at_a_time(delta):
    # one sweep capped at delta gives the groups of every cogenus up to it
    swept: dict = {cogenus: {} for cogenus in range(1, delta + 1)}
    for cogenus, length, k_min, eps, poly in _template_groups(delta):
        swept[cogenus][length, k_min, eps] = poly
    assert swept == {cogenus: template_groups_oracle(cogenus) for cogenus in swept}


@pytest.mark.parametrize(
    "fault, message",
    [
        # gap factors that grow like 2^k are no polynomial of degree <= cogenus
        ("np._gbinom = lambda c, i: 2 ** max(c, 0)", "has degree"),
        # a sweep that never places a midpoint reaches an edge's end with it
        ("np.product = lambda *choices: iter([(0,) * len(choices)])", "unplaced midpoint"),
    ],
)
def test_template_sweep_checks_survive_optimize(fault, message):
    code = f"from floordiagrams import nodepoly as np; {fault}; np.node_polynomial(3)"
    proc = run_optimized(code)
    assert proc.returncode != 0
    assert "AssertionError: template sweep: " in proc.stderr and message in proc.stderr


def test_validity_threshold_check_survives_optimize():
    # k_min 10 too high ends some sequence past the threshold 2 * delta
    code = (
        "from floordiagrams import nodepoly as np; sweep = np._template_groups; "
        "np._template_groups = lambda delta: tuple("
        "(c, length, k_min + 10, eps, poly) for c, length, k_min, eps, poly in sweep(delta)); "
        "np.node_polynomial(3)"
    )
    proc = run_optimized(code)
    assert proc.returncode != 0 and "AssertionError: validity threshold" in proc.stderr


def test_node_polynomial_delta_1():
    poly, threshold = node_polynomial(1)
    assert poly == RatPolynomial((3, -6, 3))
    assert threshold == 2


def test_node_polynomial_delta_2():
    poly, threshold = node_polynomial(2)
    expect = (
        RatPolynomial((-1, 1))
        * RatPolynomial((-2, 1))
        * RatPolynomial((-11, -3, 3)).scale(F(3, 2))
    )
    assert poly == expect
    assert threshold == 4


def test_node_polynomial_delta_0():
    poly, threshold = node_polynomial(0)
    assert poly == RatPolynomial.constant(1)
    assert threshold == 0


def test_node_polynomial_delta_3_evaluations():
    poly, threshold = node_polynomial(3)
    assert threshold == 6
    assert poly.eval_int(5) == 7915
    assert poly.eval_int(4) == 675


def test_node_polynomial_degrees():
    for delta in range(1, 5):
        poly, _ = node_polynomial(delta)
        assert poly.degree == 2 * delta


def test_node_polynomial_matches_master_sum_beyond_threshold():
    for delta in (1, 2, 3):
        poly, _ = node_polynomial(delta)
        for d in range(2 * delta, 2 * delta + 4):
            assert poly.eval_int(d) == severi_numeric(d, delta), (delta, d)


def test_aj_polynomials():
    ajs = aj_polynomials(3)
    for got, coeffs in zip(ajs, aj_reference(3)):
        assert got == RatPolynomial(coeffs)


def test_aj_quadratic_for_computed_range():
    for poly in aj_polynomials(3):
        assert poly.degree <= 2


def test_generating_series_round_trip():
    ajs = aj_polynomials(3)
    rebuilt = exp_series(ajs)
    for delta in range(0, 4):
        assert rebuilt[delta] == node_polynomial(delta)[0]
