"""Acceptance suite: every criterion is exact (tolerance zero) and prints
one pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`."""

import time
from fractions import Fraction
from math import factorial

from floordiagrams.core import FloorDiagram, Partition, diagram
from floordiagrams.enumeration import (
    DiagramQuery,
    count_connected,
    count_filtered,
    enumerate_diagrams,
)
from floordiagrams.invariants import gw, relative_gw, severi, welschinger
from floordiagrams.markings import (
    canonical_marking,
    count_markings,
    count_orderings,
    count_relative_markings,
    enumerate_distributions,
    list_markings,
)
from floordiagrams.nodepoly import (
    RatPolynomial,
    Template,
    aj_polynomials,
    enumerate_templates,
    extension_polynomial,
    node_polynomial,
)
from floordiagrams.oracles import (
    appendix_counts,
    brute_force_markings,
    build_poset,
    count_orderings_downset,
    extract_marking,
    increasing_tree_oracle,
    kontsevich_oracle,
    perturb_elevator,
    severi_numeric,
    severi_reducible_entries,
    severi_split_oracle,
)
from floordiagrams.sequences import (
    diagram_to_tree,
    max_tangency_fixed,
    max_tangency_free,
    ode_residual,
    tree_to_diagram,
)
from floordiagrams.tables import (
    aj_reference,
    appendix_rows,
    gw_table,
    max_tangency_table,
    relative_table,
    severi_table,
    template_rows,
)
from floordiagrams.tropical import reconstruct, stretched_config, verify_curve

P = Partition


def report(number: int, label: str, started: float) -> None:
    print(f"criterion {number:2d}: PASS ({time.time() - started:6.2f}s)  {label}")


def partition_pairs(d):
    def partitions(n):
        if n == 0:
            yield ()
            return
        for first in range(n, 0, -1):
            for rest in partitions(n - first):
                if not rest or rest[0] <= first:
                    yield (first, *rest)

    for k in range(d + 1):
        for lam in partitions(k):
            for rho in partitions(d - k):
                yield P(lam), P(rho)


def test_criterion_1_gromov_witten_table():
    start = time.time()
    for (d, g), expect in sorted(gw_table().items()):
        if d <= 5:
            assert gw(d, g) == expect, (d, g)
    assert time.time() - start < 60, "d <= 5 must finish within a minute"
    for g in range(7):
        assert gw(6, g) == gw_table()[(6, g)], g
    assert time.time() - start < 1800, "the d=6 column must finish within 30 minutes"
    report(1, "Gromov-Witten table d<=6", start)


def test_criterion_2_severi_table_and_splitting():
    start = time.time()
    for (d, delta), expect in sorted(severi_table().items()):
        if d <= 5:
            assert severi(d, delta) == expect, (d, delta)
    assert severi(4, 4) == 666
    assert severi(5, 5) == 90027
    # a Severi degree also counts reducible curves, so it differs from the
    # irreducible count of genus (d-1)(d-2)/2 - delta exactly at the entries
    # the table marks reducible; a negative genus has no irreducible curve
    reducible = set()
    for d, delta in severi_table():
        genus = (d - 1) * (d - 2) // 2 - delta
        if severi(d, delta) != (gw(d, genus) if genus >= 0 else 0):
            reducible.add((d, delta))
    assert reducible == severi_reducible_entries()
    # gw inverts the sweep by the splitting formula in exponential form, so
    # this is an identity and checks the splitting enumerator only;
    # test_oracles.py holds the independent Severi checks
    for d in range(1, 6):
        for delta in range(0, 7):
            assert severi(d, delta) == severi_split_oracle(d, delta), (d, delta)
    report(2, "Severi table d<=5, reducible entries d<=6, splitting oracle", start)


def test_criterion_3_relative_table():
    start = time.time()
    ref = relative_table()
    for column, expect in zip(ref["columns"], ref["totals"]):
        lam, rho = P.parse(column[0]), P.parse(column[1])
        assert relative_gw(3, 0, lam, rho) == expect, column
    for diag_text, cells in zip(ref["diagrams"], ref["cells"]):
        diag_ = FloorDiagram.from_text(diag_text)
        for (lam_text, rho_text), (mu_rho, nu) in zip(ref["columns"], cells):
            lam, rho = P.parse(lam_text), P.parse(rho_text)
            got_mu = diag_.multiplicity()
            for part in rho.parts:
                got_mu *= part
            assert got_mu == mu_rho and count_relative_markings(diag_, lam, rho) == nu
    for (lam_text, rho_text), expect in ref["genus1"]:
        assert relative_gw(3, 1, P.parse(lam_text), P.parse(rho_text)) == expect
    elapsed = time.time() - start
    assert elapsed < 1.0, f"relative table must finish within a second, took {elapsed:.2f}"
    report(3, "relative invariants figure and genus-1 values", start)


def test_criterion_4_appendix_a():
    start = time.time()
    for row in appendix_rows():
        diag_ = diagram(row["d"], [tuple(e) for e in row["edges"]])
        assert diag_.multiplicity() == row["mu"], diag_.text()
        assert count_markings(diag_) == row["nu"], diag_.text()
    for (d, g), expect in appendix_counts().items():
        assert count_connected(d, g) == expect, (d, g)
    report(4, "Appendix A mu/nu values and diagram counts", start)


def test_criterion_5_node_polynomials():
    start = time.time()
    assert node_polynomial(1)[0] == RatPolynomial((3, -6, 3))
    expected_2 = (
        RatPolynomial((-1, 1))
        * RatPolynomial((-2, 1))
        * RatPolynomial((-11, -3, 3)).scale(Fraction(3, 2))
    )
    assert node_polynomial(2)[0] == expected_2
    assert len(enumerate_templates(1)) == 2
    assert len(enumerate_templates(2)) == 7
    produced = {t.edges: t for t in enumerate_templates(1) + enumerate_templates(2)}
    for row in template_rows():
        t = produced[tuple(tuple(e) for e in row["edges"])]
        assert t.stats() == (
            row["ell"], row["mu"], row["eps"], tuple(row["kappa"]), row["k_min"],
        )
        assert extension_polynomial(t) == RatPolynomial(
            tuple(Fraction(c) for c in row["P"])
        )
    for d in range(1, 6):
        for delta in range(1, 7):
            assert severi_numeric(d, delta) == severi(d, delta), (d, delta)
    ajs = aj_polynomials(3)
    for got, coeffs in zip(ajs, aj_reference(3)):
        assert got == RatPolynomial(coeffs)
    symbolic_start = time.time()
    node_polynomial(3)
    assert time.time() - symbolic_start < 60, "delta=3 symbolic within a minute"
    report(5, "node polynomials, templates and A_j", start)


def test_criterion_6_max_tangency():
    start = time.time()
    for d, fixed, free in max_tangency_table():
        assert max_tangency_fixed(d) == fixed, d
        assert max_tangency_free(d) == free, d
    elapsed = time.time() - start
    assert elapsed < 1.0, f"tangency table must finish within a second, took {elapsed:.2f}"
    assert all(c == 0 for c in ode_residual(10))
    for d in range(1, 7):
        assert increasing_tree_oracle(d) == max_tangency_fixed(d), d
    report(6, "maximal tangency table, ODE and tree oracle", start)


def test_criterion_7_welschinger_and_counts():
    start = time.time()
    assert welschinger(3) == 8
    assert welschinger(4) == 240
    odd_expected = [1, 1, 2, 8, 46, 352]
    simple_expected = [1, 1, 2, 7, 36, 245]
    from floordiagrams.sequences import odd_diagram_count

    for d in range(1, 7):
        assert count_filtered(d, 0, "odd") == odd_expected[d - 1], d
        assert odd_diagram_count(d) == odd_expected[d - 1], d
        assert count_filtered(d, 0, "simple") == simple_expected[d - 1], d
    report(7, "Welschinger values, odd and multiplicity-free counts", start)


def test_criterion_8_bijection_properties():
    start = time.time()
    for d in range(1, 7):
        for diag_ in enumerate_diagrams(DiagramQuery(d, genus=0)):
            assert tree_to_diagram(diagram_to_tree(diag_)) == diag_
    for d in range(1, 9):
        assert count_connected(d, 0) == (1 if d == 1 else d ** (d - 2)), d
    for d in range(2, 7):
        for diag_ in enumerate_diagrams(DiagramQuery(d, genus=0)):
            tree = diagram_to_tree(diag_)
            for i in range(1, d):
                assert ((i, i + 1, 1) in diag_.edges) == ((i, i + 1) in tree.edges)
    for d in range(3, 8):
        assert count_filtered(d, 0, f"has-weight={d - 1}") == factorial(d - 2), d
    for d in range(2, 8):
        for b in range(1, d):
            a = 1
            spec = ";".join(f"({a + i},{a + i + 1},1)" for i in range(b))
            assert count_filtered(d, 0, f"contains={spec}") == (b + 1) * d ** (d - b - 2)
    report(8, "tree bijection, Cayley, short-edge and chain counts", start)


def test_criterion_9_oracle_battery():
    start = time.time()
    # brute force vs fast marking counter on every poset with <= 12 elements
    checked = 0
    for d in range(1, 5):
        for g in range(0, 4):
            for diag_ in enumerate_diagrams(DiagramQuery(d, genus=g)):
                for lam, rho in partition_pairs(d):
                    size = d + len(diag_.edges) + lam.length + rho.length
                    if size > 12:
                        continue
                    assert brute_force_markings(diag_, lam, rho) == (
                        count_relative_markings(diag_, lam, rho)
                    ), (diag_.text(), lam, rho)
                    checked += 1
    assert checked > 200
    for d in range(1, 7):
        assert kontsevich_oracle(d) == gw(d, 0), d
    for d in (1, 2, 3):
        for g in (0, 1):
            for diag_ in enumerate_diagrams(DiagramQuery(d, genus=g)):
                for lam, rho in partition_pairs(d):
                    for dist in enumerate_distributions(diag_, lam, rho):
                        poset = build_poset(diag_, dist, lam)
                        raw = count_orderings(poset)
                        assert raw == count_orderings_downset(poset)
                        assert raw % poset.symmetry == 0
    report(9, "brute-force, Kontsevich, downset-DP and symmetry oracles", start)


def test_criterion_10_tropical_reconstruction():
    start = time.time()
    config = stretched_config(3, 0, 0)
    sketches = []
    for diag_ in enumerate_diagrams(DiagramQuery(3, genus=0)):
        for order in list_markings(diag_, P(()), P.ones(3)):
            sketch = reconstruct(diag_, order, config)
            assert verify_curve(sketch, 3, 0).ok
            diag_back, order_back = extract_marking(sketch)
            assert diag_back == diag_
            assert order_back == canonical_marking(order)
            sketches.append(sketch)
    assert len(sketches) == 9
    target = next(
        i for i, e in enumerate(sketches[0].elevators) if e.lower_floor is not None
    )
    assert not verify_curve(perturb_elevator(sketches[0], target, +1), 3, 0).ok
    report(10, "tropical gallery, verification, round trip and fault", start)
