import os
import subprocess
import sys
from pathlib import Path

from math import factorial

import pytest
from hypothesis import given, settings

from floordiagrams import markings
from floordiagrams.core import DiagramError, Partition, diagram
from floordiagrams.enumeration import DiagramQuery, enumerate_diagrams
from floordiagrams.markings import (
    count_markings,
    count_orderings,
    count_relative_markings,
    enumerate_distributions,
    list_markings,
)
from floordiagrams.oracles import (
    brute_force_markings,
    build_poset,
    count_orderings_downset,
    ordering_count_with_pinned_sinks,
)
from floordiagrams.tables import appendix_rows, relative_table

from conftest import small_diagrams

P = Partition
EXAMPLE = diagram(4, [(1, 2, 1), (2, 3, 1), (2, 3, 1), (3, 4, 2)])
CHAIN3 = diagram(3, [(1, 2, 1), (2, 3, 1)])
HEAVY3 = diagram(3, [(1, 2, 1), (2, 3, 2)])
FORK3 = diagram(3, [(1, 3, 1), (2, 3, 1)])


def ordinary(diag):
    return P(()), P.ones(diag.d)


# -- distributions ------------------------------------------------------------


def test_distribution_count_lambda_ones():
    dists = list(enumerate_distributions(CHAIN3, P((1, 1, 1)), P(())))
    assert len(dists) == 3
    # floor 2 feeds exactly one tangency vertex, floor 3 the other two
    for dist in dists:
        assert sorted(dist.lambda_sources) == [2, 3, 3]


def test_distribution_single_heavy_sink():
    dists = list(enumerate_distributions(HEAVY3, P(()), P((3,))))
    assert len(dists) == 1
    assert dists[0].rho_sinks == ((), (), (3,))


def test_distribution_impossible():
    assert list(enumerate_distributions(CHAIN3, P(()), P((3,)))) == []


def test_distribution_requires_matching_sizes():
    with pytest.raises(DiagramError):
        list(enumerate_distributions(CHAIN3, P((1,)), P((3,))))
    with pytest.raises(DiagramError):
        count_relative_markings(CHAIN3, P((1,)), P((3,)))


def test_lambda_labels_share_one_poset(monkeypatch):
    # the count pays every floor plan's lambda labellings in its position
    # DP, so 8! labellings order no poset at all
    posets = []

    def counted(poset):
        posets.append(poset)
        return count_orderings(poset)

    monkeypatch.setattr(markings, "count_orderings", counted)
    assert count_relative_markings(diagram(8), P.ones(8), P(())) == factorial(8)
    assert len(posets) == 0


def test_distributions_are_deterministic():
    runs = [
        [
            (d.lambda_sources, d.rho_sinks)
            for d in enumerate_distributions(EXAMPLE, P((1,)), P((2, 1)))
        ]
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    assert len(runs[0]) == len(set(runs[0]))


# -- poset shape and symmetry --------------------------------------------------


def test_poset_example_diagram():
    dist = next(enumerate_distributions(EXAMPLE, *ordinary(EXAMPLE)))
    poset = build_poset(EXAMPLE, dist, P(()))
    assert poset.element_count == 12
    assert poset.symmetry == 12  # 3! sinks at floor 4, one sink at floor 3, 2! parallel


def test_poset_chain3():
    dist = next(enumerate_distributions(CHAIN3, *ordinary(CHAIN3)))
    poset = build_poset(CHAIN3, dist, P(()))
    assert poset.element_count == 8
    assert poset.symmetry == 2


def test_poset_single_vertex():
    one = diagram(1)
    dist = next(enumerate_distributions(one, *ordinary(one)))
    poset = build_poset(one, dist, P(()))
    assert poset.element_count == 2
    assert poset.symmetry == 1


def test_element_count_formula():
    # 2d + g - 1 + len(lambda) + len(rho)
    for lam, rho in [(P(()), P((2, 2))), (P((2,)), P((1, 1))), (P((3, 1)), P(()))]:
        for dist in enumerate_distributions(EXAMPLE, lam, rho):
            poset = build_poset(EXAMPLE, dist, lam)
            assert poset.element_count == 2 * 4 + 1 - 1 + lam.length + rho.length


# -- ordering counts ------------------------------------------------------------


def test_ordering_count_example():
    dist = next(enumerate_distributions(EXAMPLE, *ordinary(EXAMPLE)))
    poset = build_poset(EXAMPLE, dist, P(()))
    assert count_orderings(poset) == 72  # nu = 72 / 12 = 6


def test_ordering_count_chain3():
    dist = next(enumerate_distributions(CHAIN3, *ordinary(CHAIN3)))
    poset = build_poset(CHAIN3, dist, P(()))
    assert count_orderings(poset) == 10  # nu = 10 / 2 = 5


def test_ordering_count_total_chain():
    two = diagram(2, [(1, 2, 1)])
    dist = next(enumerate_distributions(two, P((2,)), P(())))
    poset = build_poset(two, dist, P((2,)))
    assert count_orderings(poset) == 1


def test_gap_dp_matches_downset_dp_for_small_diagrams():
    for d in (1, 2, 3):
        for g in range(0, 2):
            for diag_ in enumerate_diagrams(DiagramQuery(d, genus=g)):
                for lam_parts, rho_parts in _partition_pairs(d):
                    lam, rho = P(lam_parts), P(rho_parts)
                    for dist in enumerate_distributions(diag_, lam, rho):
                        poset = build_poset(diag_, dist, lam)
                        assert count_orderings(poset) == count_orderings_downset(poset)


def _partition_pairs(d):
    def partitions(n):
        if n == 0:
            yield ()
            return
        for first in range(n, 0, -1):
            for rest in partitions(n - first):
                if not rest or rest[0] <= first:
                    yield (first, *rest)

    pairs = []
    for k in range(d + 1):
        for lam in partitions(k):
            for rho in partitions(d - k):
                pairs.append((lam, rho))
    return pairs


# -- marking counts --------------------------------------------------------------


def test_count_markings_examples():
    assert count_markings(EXAMPLE) == 6
    assert count_markings(FORK3) == 3
    assert count_markings(diagram(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1)])) == 40


def test_appendix_table():
    for row in appendix_rows():
        diag_ = diagram(row["d"], [tuple(e) for e in row["edges"]])
        assert diag_.multiplicity() == row["mu"], diag_.text()
        assert count_markings(diag_) == row["nu"], diag_.text()


def test_relative_marking_figure_cells():
    ref = relative_table()
    from floordiagrams.core import FloorDiagram

    for diag_text, cells in zip(ref["diagrams"], ref["cells"]):
        diag_ = FloorDiagram.from_text(diag_text)
        for (lam_text, rho_text), (mu_rho, nu) in zip(ref["columns"], cells):
            lam, rho = P.parse(lam_text), P.parse(rho_text)
            got_nu = count_relative_markings(diag_, lam, rho)
            got_mu = diag_.multiplicity()
            for part in rho.parts:
                got_mu *= part
            assert (got_mu, got_nu) == (mu_rho, nu), (diag_text, lam_text, rho_text)


def test_relative_reduces_to_ordinary():
    for d in (1, 2, 3, 4):
        for g in range(0, 3):
            for diag_ in enumerate_diagrams(DiagramQuery(d, genus=g)):
                assert count_relative_markings(diag_, *ordinary(diag_)) == count_markings(
                    diag_
                )


def test_markings_positive_for_connected():
    for d in (1, 2, 3, 4):
        for diag_ in enumerate_diagrams(DiagramQuery(d, genus=0)):
            assert count_markings(diag_) >= 1


# -- brute force oracle ------------------------------------------------------------


def test_brute_force_appendix_d3():
    assert brute_force_markings(CHAIN3, *ordinary(CHAIN3)) == 5
    assert brute_force_markings(HEAVY3, *ordinary(HEAVY3)) == 1
    assert brute_force_markings(FORK3, *ordinary(FORK3)) == 3


def test_brute_force_fixed_tangency_point():
    two = diagram(2, [(1, 2, 1)])
    assert brute_force_markings(two, P((2,)), P(())) == 1
    one = diagram(1)
    assert brute_force_markings(one, P((1,)), P(())) == 1


def test_brute_force_matches_fast_path_small():
    for d in (1, 2, 3):
        for g in range(0, 2):
            for diag_ in enumerate_diagrams(DiagramQuery(d, genus=g)):
                for lam_parts, rho_parts in _partition_pairs(d):
                    lam, rho = P(lam_parts), P(rho_parts)
                    assert brute_force_markings(diag_, lam, rho) == (
                        count_relative_markings(diag_, lam, rho)
                    )


def test_brute_force_refuses_large_posets():
    big = diagram(6, [(1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 6, 1)])
    with pytest.raises(DiagramError):
        brute_force_markings(big, *ordinary(big))


def test_list_markings_matches_count():
    sym24 = diagram(5, [(1, 2, 1), (2, 5, 2), (3, 4, 1), (4, 5, 1)])
    dist = next(enumerate_distributions(sym24, *ordinary(sym24)))
    assert build_poset(sym24, dist, P(())).symmetry == 24
    for diag_ in (CHAIN3, HEAVY3, FORK3, EXAMPLE, sym24):
        reps = list_markings(diag_, *ordinary(diag_))
        assert len(reps) == count_markings(diag_)
        assert len(set(reps)) == len(reps)


# -- properties ---------------------------------------------------------------------


@given(small_diagrams(max_d=4))
@settings(max_examples=40, deadline=None)
def test_symmetry_divides_ordering_count(diag_):
    lam, rho = ordinary(diag_)
    for dist in enumerate_distributions(diag_, lam, rho):
        poset = build_poset(diag_, dist, lam)
        assert count_orderings(poset) % poset.symmetry == 0


def test_remark_last_k_sinks_equivalence():
    # mu-weighted relative count with lambda = 1^k equals the mu-weighted
    # number of ordinary markings whose top k elements are sinks
    for d in (2, 3, 4):
        for g in (0, 1, 2, 3):
            diagrams = list(enumerate_diagrams(DiagramQuery(d, genus=g)))
            if not diagrams:
                continue
            for k in range(0, d + 1):
                lhs = sum(
                    diag_.multiplicity()
                    * count_relative_markings(diag_, P.ones(k), P.ones(d - k))
                    for diag_ in diagrams
                )
                rhs = 0
                for diag_ in diagrams:
                    reps = list_markings(diag_, *ordinary(diag_))
                    good = sum(
                        1
                        for rep in reps
                        if all(label.startswith("s") for label in rep[len(rep) - k :])
                    )
                    rhs += diag_.multiplicity() * good
                assert lhs == rhs, (d, g, k)


def test_pinned_sink_counter_matches_listing():
    for diag_ in (CHAIN3, HEAVY3, FORK3, EXAMPLE):
        reps = list_markings(diag_, *ordinary(diag_))
        for k in (1, 2):
            direct = 0
            for v in range(1, diag_.d + 1):
                direct += ordering_count_with_pinned_sinks(diag_, v, k)
            by_listing = sum(
                1
                for rep in reps
                if all(
                    label.startswith(f"s") for label in rep[len(rep) - k :]
                )
                and len({label.split("w")[0] for label in rep[len(rep) - k :]}) == 1
            )
            assert direct == by_listing, (diag_.text(), k)


def test_gap_dp_consistency_check_survives_optimize():
    # a window that ends before it starts leaves an item pending forever
    code = "from floordiagrams.markings import _gap_dp; _gap_dp(3, ((3, 2),))"
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and "AssertionError" in proc.stderr
