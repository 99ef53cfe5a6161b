"""The Caporaso-Harris recursion against the floor-diagram engine.

The recursion shares no code with floor diagrams or templates, so it
checks the sweep behind ``severi`` and ``relative_gw`` at every cogenus
and tangency profile, past the frozen tables, the enumerate-then-count
sum at every tangency profile, and the node polynomials past their
threshold.  The enumerate-then-count sum in turn checks the sweep's
connected sums, and its odd-weight rows behind ``welschinger``; the
paper's frozen max-tangency table checks the forward sweep to d = 11.  The
recursive tree bijection checks the one-pass one in both directions, the
listing by automorphism orbits checks the marking listing, and the
per-Fraction sketch renderer checks the integer one byte for byte.  The
depth-first edge-set generator checks the memoized floor sweep, whose
listing and count share every transition.
"""

import ast
import random
from fractions import Fraction
from math import factorial, prod
from pathlib import Path

import pytest

import floordiagrams
from floordiagrams.cli import main
from floordiagrams.core import DiagramError, FloorDiagram, Partition, diagram
from floordiagrams.enumeration import (
    DiagramQuery,
    _generate_edge_sets,
    all_diagrams,
    count_connected,
    enumerate_diagrams,
)
from floordiagrams.invariants import (
    _SWEEPS,
    _connected,
    _relative_rows,
    _route,
    _weighted_marking_sum,
    gw,
    relative_gw,
    severi,
    welschinger,
)
from floordiagrams.markings import (
    count_markings,
    count_orderings,
    count_relative_markings,
    enumerate_distributions,
    list_markings,
)
from floordiagrams.nodepoly import node_polynomial
from floordiagrams.oracles import (
    build_poset,
    caporaso_harris,
    copy_with,
    diagram_to_tree_oracle,
    distributions_oracle,
    edge_sets_oracle,
    gap_dp_oracle,
    gw_log_oracle,
    marking_orbits_oracle,
    perturb_elevator,
    reconstruct_oracle,
    sketch_svg_oracle,
    tree_to_diagram_oracle,
    verify_curve_oracle,
    welschinger_log_oracle,
    welschinger_oracle,
)
from floordiagrams.render import sketch_svg
from floordiagrams.sequences import LabeledTree, diagram_to_tree, tree_to_diagram
from floordiagrams.tables import appendix_rows, max_tangency_table, severi_table
from floordiagrams.tropical import (
    Elevator,
    FloorCurve,
    StretchedConfig,
    TropicalCurveSketch,
    reconstruct,
    stretched_config,
    verify_curve,
)


def partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in partitions(n - part, part):
            yield (part, *rest)


def multiplicities(parts):
    """Partition -> multiplicity vector (entry k-1 counts the parts equal to k)."""
    return tuple(parts.count(k) for k in range(1, max(parts, default=0) + 1))


def test_recursion_reproduces_the_severi_table():
    for (d, delta), expect in severi_table().items():
        assert caporaso_harris(d, delta) == expect, (d, delta)


@pytest.mark.parametrize("d", range(1, 10))
def test_recursion_equals_sweep_row(d):
    top = d * (d - 1) // 2
    for delta in range(top + 2):
        assert caporaso_harris(d, delta, (), (d,)) == severi(d, delta), (d, delta)
    assert severi(d, top) > 0 and severi(d, top + 1) == 0


def test_log_of_the_recursion_equals_gw_at_every_genus():
    """The exponential formula read from Caporaso-Harris alone checks the
    inversion behind gw at every genus, past the frozen degree-6 column,
    and with it the lower-degree rows that each gw reads off its own
    degree's sweep, up to the CLI's largest degree."""
    assert [gw_log_oracle(7, g) for g in (1, 2, 3)] == [60478511040, 122824720116, 153796445095]
    for d in range(1, 10):
        # below genus 0 the point count is under 3d - 1 and the log vanishes
        for g in range(1 - 3 * d, 0):
            assert gw_log_oracle(d, g) == 0, (d, g)
        for g in range((d - 1) * (d - 2) // 2 + 2):
            assert gw_log_oracle(d, g) == gw(d, g), (d, g)


def test_recursion_equals_relative_diagram_sums():
    checked = 0
    for d in range(1, 5):
        for delta in range(d * (d - 1) // 2 + 1):
            query = DiagramQuery(d, cogenus=delta)
            for k in range(d + 1):
                for lam in partitions(k):
                    for rho in partitions(d - k):
                        expect = _weighted_marking_sum(query, Partition(lam), Partition(rho))
                        got = caporaso_harris(d, delta, multiplicities(lam), multiplicities(rho))
                        assert got == expect, (d, delta, lam, rho)
                        checked += 1
    assert checked > 150


def profiles(d):
    for k in range(d + 1):
        for lam in partitions(k):
            for rho in partitions(d - k):
                yield lam, rho


def full_cap(d):
    return tuple(d // k for k in range(1, d + 1))


@pytest.mark.parametrize("d", range(1, 9))
def test_recursion_equals_relative_sweep_rows(d):
    """The all-profile sweep at d holds a row for every profile of every
    degree up to d, and no other; each equals the recursion, as does the
    row that profile's own query reads."""
    rows = _relative_rows(d, full_cap(d), full_cap(d))
    every = [(lam, rho) for low in range(1, d + 1) for lam, rho in profiles(low)]
    assert rows.keys() == {(multiplicities(lam), multiplicities(rho)) for lam, rho in every}
    for lam, rho in every:
        low = sum(lam) + sum(rho)
        top = low * (low - 1) // 2
        alpha, beta = multiplicities(lam), multiplicities(rho)
        own = _relative_rows(*_route(low, alpha, beta))
        for row in (own[alpha, beta], rows[alpha, beta]):
            for delta in range(top + 2):
                expect = caporaso_harris(low, delta, alpha, beta)
                assert prod(rho) * row.get(top - delta, 0) == expect, (d, low, delta, lam, rho)


def clear_sweeps():
    """Empty the sweep table and every cache of a value read from it."""
    for fn in (gw, severi, relative_gw, _connected, _relative_rows):
        fn.cache_clear()


def relative_grid(d, genera=(0,)):
    return {
        (g, lam, rho): relative_gw(d, g, Partition(lam), Partition(rho))
        for lam, rho in profiles(d)
        for g in genera
    }


def test_gw_and_severi_never_run_the_all_profile_sweep():
    """The profile lambda empty, rho = 1^d reads the sweep capped at it;
    every other profile reads the sweep over all profiles.  A query reads
    the first sweep run that covers it, so a lower degree or a profile
    inside a swept cap runs no sweep of its own."""
    gw_sweep = (6, (), (6,), False)
    grid_sweep = (5, full_cap(5), full_cap(5), False)
    clear_sweeps()
    try:
        for g in range(7):
            gw(6, g)
        for delta in range(17):
            severi(6, delta)
        assert list(_SWEEPS) == [gw_sweep]
        for g in range(7):
            gw(5, g)
        assert list(_SWEEPS) == [gw_sweep]

        # the grid's first profile, rho = (5), lies outside the gw sweep's
        # cap; lambda empty, rho = 1^5 reads the gw sweep
        clear_sweeps()
        for delta in range(17):
            severi(6, delta)
        relative_grid(5)
        assert list(_SWEEPS) == [gw_sweep, grid_sweep]

        clear_sweeps()
        relative_grid(5)
        assert list(_SWEEPS) == [grid_sweep]
    finally:
        clear_sweeps()


def test_a_covering_sweep_gives_every_cold_value():
    """Every profile with d <= 5 and g <= 2, and every Welschinger number
    with d <= 6, read through a sweep of a higher degree that covers it
    equals its value from its own sweep, with nothing else cached."""
    clear_sweeps()
    try:
        cold = {}
        for d in range(1, 6):
            for lam, rho in profiles(d):
                clear_sweeps()
                for g in range(3):
                    cold[d, g, lam, rho] = relative_gw(d, g, Partition(lam), Partition(rho))
        clear_sweeps()
        _relative_rows(6, full_cap(6), full_cap(6))
        covered = {
            (d, g, lam, rho): relative_gw(d, g, Partition(lam), Partition(rho))
            for d, g, lam, rho in cold
        }
        assert list(_SWEEPS) == [(6, full_cap(6), full_cap(6), False)]
        assert covered == cold and len(cold) == 219

        cold = {}
        for d in range(1, 7):
            clear_sweeps()
            cold[d] = welschinger(d)
        clear_sweeps()
        _relative_rows(7, (), (7,), True)
        assert {d: welschinger(d) for d in cold} == cold
        assert list(_SWEEPS) == [(7, (), (7,), True)]
    finally:
        clear_sweeps()


def test_relative_gw_equals_connected_diagram_sums():
    checked = 0
    for d in range(1, 6):
        for g in range((d - 1) * (d - 2) // 2 + 2):
            query = DiagramQuery(d, genus=g)
            for lam, rho in profiles(d):
                lam, rho = Partition(lam), Partition(rho)
                expect = _weighted_marking_sum(query, lam, rho)
                assert relative_gw(d, g, lam, rho) == expect, (d, g, lam, rho)
                checked += 1
    assert checked > 350


def test_recursion_equals_node_polynomials_past_threshold():
    # every cogenus nodepoly --delta serves; past 5 only at d = 2 * delta,
    # where caporaso_harris(2 * delta, delta) takes up to about 1 s
    for delta in range(9):
        poly, threshold = node_polynomial(delta)
        assert threshold == 2 * delta
        for d in range(threshold, threshold + (6 if delta < 6 else 1)):
            assert poly.eval_int(d) == caporaso_harris(d, delta), (delta, d)


def test_relative_sweep_equals_max_tangency_table():
    """The paper's z(d) and d * z(d) for d = 2..11: order-d tangency at a
    fixed and at a free point, read off the forward sweep capped at the
    query's own profile.  The table is frozen data and the sweep shares no
    code with the closed series the table is otherwise checked against."""
    clear_sweeps()
    try:
        for d, fixed, free in max_tangency_table():
            if 2 <= d <= 11:
                e_d = (0,) * (d - 1) + (1,)  # one part, equal to d
                assert _connected(d, d - 1, e_d, (), (d, e_d, (), False)) == fixed, d
                assert d * _connected(d, d - 1, (), e_d, (d, (), e_d, False)) == free, d
    finally:
        clear_sweeps()


def odd_marking_sum(query):
    """Sum of the marking counts of the query's diagrams, which the odd
    filter restricts to those with every edge weight odd."""
    return sum(count_markings(diag) for diag in enumerate_diagrams(query))


@pytest.mark.parametrize("d", range(1, 6))
def test_odd_weight_rows_equal_odd_diagram_sums(d):
    """Every row and connected sum of the odd-weight sweep, disconnected
    and higher-genus ones too, which welschinger does not read."""
    top = d * (d - 1) // 2
    sweep = _route(d, (), (d,), True)
    row = _relative_rows(*sweep)[(), (d,)]
    for delta in range(top + 1):
        query = DiagramQuery(d, cogenus=delta, filter="odd")
        assert row.get(top - delta, 0) == odd_marking_sum(query), (d, delta)
    for g in range((d - 1) * (d - 2) // 2 + 1):
        query = DiagramQuery(d, genus=g, filter="odd")
        assert _connected(d, d - 1 + g, (), (d,), sweep) == odd_marking_sum(query), (d, g)


def test_welschinger_equals_enumerated_odd_diagrams():
    for d in range(1, 8):
        assert welschinger(d) == welschinger_oracle(d), d
    # welschinger_oracle(8) gives the same value, in about 30 s
    assert welschinger(8) == 359935488000


def test_refined_recursion_equals_the_odd_weight_sweep():
    """The Caporaso-Harris recursion refined at y = -1 shares no code with
    floor diagrams; its log checks welschinger past the enumerated
    oracle's reach, and every genus of the odd-weight sweep's connected
    sums, each read through the odd key its query is routed to."""
    published = [1, 1, 8, 240, 18264, 2845440, 792731520, 359935488000]
    assert [welschinger_log_oracle(d) for d in range(1, 9)] == published
    for d in range(1, 12):
        assert welschinger_log_oracle(d) == welschinger(d), d
    for d in range(1, 9):
        sweep = _route(d, (), (d,), True)
        assert sweep[3] is True
        for g in range((d - 1) * (d - 2) // 2 + 2):
            expect = welschinger_log_oracle(d, g)
            assert _connected(d, d - 1 + g, (), (d,), sweep) == expect, (d, g)


def test_memoized_sweep_equals_the_depth_first_oracle():
    # the listing and the count run through the same sweep transitions, so
    # both are checked against a generator that shares none of them
    for d in range(1, 7):
        for n_edges in range(d * (d - 1) // 2 + 2):
            for connected in (False, True):
                assert _generate_edge_sets(d, n_edges, connected) == edge_sets_oracle(
                    d, n_edges, connected
                ), (d, n_edges, connected)
    for d in range(1, 8):
        for g in range(2):
            want = edge_sets_oracle(d, d + g - 1, True)
            if d == 7:
                assert _generate_edge_sets(d, d + g - 1, True) == want, g
            assert count_connected(d, g) == len(want), (d, g)


def test_production_modules_never_import_the_oracles():
    package = Path(floordiagrams.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "oracles.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                names = [module] + [f"{module}.{alias.name}" for alias in node.names]
            else:
                continue
            assert not any("oracles" in name.split(".") for name in names), (
                path.name,
                node.lineno,
            )


def test_production_modules_import_no_private_name_of_another_module():
    # a module's underscore names are its own; oracles, which checks them, may read them
    package = Path(floordiagrams.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "oracles.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "floordiagrams"
            ):
                private = [alias.name for alias in node.names if alias.name.startswith("_")]
                assert not private, (path.name, node.lineno, private)


def test_marking_listing_equals_the_orbit_minimum_small():
    listings = 0
    for d in range(1, 5):
        for g in range((d - 1) * (d - 2) // 2 + 1):
            for diag in enumerate_diagrams(DiagramQuery(d, genus=g)):
                for lam, rho in profiles(d):
                    lam, rho = Partition(lam), Partition(rho)
                    assert list_markings(diag, lam, rho) == marking_orbits_oracle(
                        diag, lam, rho
                    ), (diag.text(), lam, rho)
                    listings += 1
    assert listings == 747


def test_marking_listing_lines_are_distinct_small():
    # the tangency labels name their source floor, so distributions that
    # differ only in which floor feeds which tangency vertex differ in print
    assert list_markings(diagram(2), Partition((1, 1)), Partition(())) == [
        ("v1", "v2", "L2@v2", "L1@v1"),
        ("v1", "v2", "L2@v1", "L1@v2"),
    ]
    for d in range(1, 5):
        for g in range((d - 1) * (d - 2) // 2 + 1):
            for diag in enumerate_diagrams(DiagramQuery(d, genus=g)):
                for lam, rho in profiles(d):
                    lines = list_markings(diag, Partition(lam), Partition(rho))
                    assert len(set(lines)) == len(lines), (diag.text(), lam, rho)


def test_distributions_equal_the_oracle_in_order():
    """The floor plans, their spread lambda indices and the merge give the
    oracle's distributions in its order, and the count that pays each
    plan's lambda labels at once equals the sum over the oracle's
    distributions, for every diagram with d <= 5 and g <= 2."""
    cases = 0
    for d in range(1, 6):
        for g in range(3):
            for diag in enumerate_diagrams(DiagramQuery(d, genus=g)):
                for lam, rho in profiles(d):
                    lam, rho = Partition(lam), Partition(rho)
                    dists = list(distributions_oracle(diag, lam, rho))
                    assert list(enumerate_distributions(diag, lam, rho)) == dists, (
                        diag.text(), lam, rho
                    )
                    posets = [build_poset(diag, dist, lam) for dist in dists]
                    assert count_relative_markings(diag, lam, rho) == sum(
                        count_orderings(poset) // poset.symmetry for poset in posets
                    ), (diag.text(), lam, rho)
                    cases += 1
    assert cases == 17323


# one diagram per degree 7..20; the last is the slowest degree-20 diagram a
# hill climb found for the gap-at-a-time DP, which ordered one poset per plan
GAP_DP_DIAGRAMS = (
    "d=7; edges=(1,2,1);(2,5,1);(3,4,1);(4,5,1);(4,6,1);(5,6,1);(5,6,1);(5,7,1);(6,7,1);"
    "(6,7,1);(6,7,2)",
    "d=8; edges=(1,2,1);(2,3,1);(2,4,1);(3,4,1);(3,7,1);(4,5,1);(4,7,1);(5,6,1);(5,7,1);"
    "(6,7,1);(7,8,1);(7,8,1);(7,8,1);(7,8,1);(7,8,1)",
    "d=9; edges=(1,3,1);(2,4,1);(3,4,2);(4,5,1);(4,6,1);(4,6,1);(5,6,1);(5,7,1);(6,8,1);"
    "(6,8,1);(7,9,1);(7,9,1);(8,9,1);(8,9,1)",
    "d=10; edges=(1,2,1);(2,3,1);(2,3,1);(3,5,1);(3,6,2);(5,6,1);(5,6,1);(6,8,1);(7,8,1);"
    "(8,9,1);(8,9,1);(9,10,1);(9,10,2)",
    "d=11; edges=(1,3,1);(2,4,1);(3,5,2);(4,5,1);(5,6,1);(5,6,2);(5,7,1);(6,9,1);(6,11,1);"
    "(6,11,2);(7,8,1);(8,9,1);(8,9,1);(9,10,1);(9,10,1);(10,11,1);(10,11,1)",
    "d=12; edges=(1,2,1);(2,4,1);(2,7,1);(3,5,1);(4,12,1);(6,8,1);(7,8,1);(7,8,1);(8,9,1);"
    "(8,9,2);(9,10,1);(9,11,2);(10,12,1);(11,12,1);(11,12,1);(11,12,1)",
    "d=13; edges=(1,2,1);(2,3,1);(2,4,1);(3,4,1);(4,5,1);(4,12,1);(5,7,1);(6,7,1);(7,8,1);"
    "(8,9,1);(8,10,1);(9,10,1);(9,10,1);(10,11,1);(10,11,2);(11,13,1);(11,13,1);(11,13,2);"
    "(12,13,2)",
    "d=14; edges=(1,2,1);(2,8,1);(3,4,1);(4,5,1);(4,5,1);(5,9,1);(5,14,2);(6,7,1);(8,9,1);"
    "(8,12,1);(9,10,1);(9,10,2);(11,13,1);(12,13,1)",
    "d=15; edges=(1,2,1);(2,7,1);(2,9,1);(3,14,1);(4,6,1);(5,6,1);(6,7,1);(6,9,2);(7,8,1);"
    "(7,8,1);(7,11,1);(8,9,1);(8,12,1);(8,15,1);(9,10,1);(9,10,1);(9,10,1);(9,11,2);"
    "(10,11,1);(10,11,1);(10,11,1);(11,12,1);(11,13,1);(11,15,1);(12,14,1);(12,14,2);"
    "(14,15,1);(14,15,1);(14,15,1);(14,15,1)",
    "d=16; edges=(2,10,1);(3,9,1);(4,6,1);(5,8,1);(6,7,1);(7,8,1);(7,8,1);(8,9,1);(8,9,1);"
    "(8,9,1);(9,10,1);(9,10,1);(9,10,1);(9,13,1);(9,13,1);(10,11,2);(10,12,1);(10,13,1);"
    "(11,12,1);(12,13,1);(12,13,1);(12,14,1);(13,14,1);(13,14,1);(13,15,1);(13,16,1);"
    "(14,15,1);(14,15,1);(14,16,1);(15,16,1);(15,16,1);(15,16,2)",
    "d=17; edges=(2,17,1);(3,4,1);(4,5,1);(4,10,1);(5,7,1);(5,7,1);(6,9,1);(7,8,1);(7,8,1);"
    "(7,11,1);(8,9,2);(9,11,1);(9,12,2);(9,15,1);(10,11,1);(10,11,1);(11,13,2);(11,14,1);"
    "(11,15,1);(11,17,1);(12,13,1);(12,13,1);(12,16,1);(13,14,1);(13,14,1);(14,15,1);"
    "(14,16,1);(15,16,1);(15,16,1);(15,17,2);(16,17,1);(16,17,1);(16,17,1);(16,17,2)",
    "d=18; edges=(1,2,1);(2,3,1);(2,4,1);(3,4,1);(4,5,1);(4,8,2);(5,6,1);(5,9,1);(6,8,1);"
    "(6,9,1);(7,10,1);(8,9,2);(8,13,1);(9,10,1);(9,10,1);(9,11,1);(9,11,1);(9,12,1);"
    "(10,11,1);(10,11,1);(10,14,1);(11,12,1);(11,15,1);(11,16,1);(12,13,1);(12,13,1);"
    "(13,15,1);(13,15,1);(14,15,1);(15,16,1);(15,16,1);(15,16,1);(15,16,1);(15,17,1);"
    "(16,18,1);(17,18,1)",
    "d=19; edges=(1,2,1);(2,16,1);(3,4,1);(4,5,1);(4,12,1);(5,6,1);(5,16,1);(6,13,1);"
    "(6,16,1);(7,8,1);(8,10,2);(9,10,1);(10,12,1);(10,13,1);(10,17,2);(11,14,1);(12,13,1);"
    "(12,13,1);(12,13,1);(13,14,1);(13,14,1);(13,15,1);(13,15,1);(13,15,1);(13,15,1);"
    "(14,17,1);(15,16,1);(15,17,1);(16,18,1);(16,18,2);(17,18,1);(17,18,1);(17,19,1);"
    "(17,19,2);(18,19,1);(18,19,1);(18,19,2);(18,19,2)",
    "d=20; edges=(1,16,1);(2,9,1);(3,6,1);(4,13,1);(5,15,1);(6,12,1);(6,17,1);(7,11,1);"
    "(8,18,1);(9,18,1);(9,20,1);(10,17,1);(11,12,1);(11,16,1);(12,18,1);(12,18,1);(12,20,1);"
    "(13,19,1);(13,19,1);(14,20,1);(15,19,2);(16,17,1);(16,18,1);(16,18,1);(17,19,1);"
    "(17,19,1);(17,20,1);(17,20,1);(18,19,1);(18,19,1);(18,19,1);(18,19,2);(18,20,1);"
    "(18,20,1);(19,20,1);(19,20,1);(19,20,1);(19,20,1);(19,20,1);(19,20,1);(19,20,2);"
    "(19,20,2);(19,20,2)",
)


def gap_dp_markings(diag, lam, rho):
    """nu from the gap-at-a-time DP: one poset per oracle distribution."""
    total = 0
    for dist in distributions_oracle(diag, lam, rho):
        poset = build_poset(diag, dist, lam)
        total += gap_dp_oracle(poset.d, poset.windows()) // poset.symmetry
    return total


def hook_length_markings(d, a):
    """nu of the edgeless degree-d diagram at lambda = 1^a, rho = 1^(d-a).

    Each floor takes one tangency vertex or one sink, so every element but
    floor 1 lies above exactly one floor: each plan's poset is a rooted
    tree with n!/prod(hooks) orders, the hook of floor v being floors
    v..d and their sinks, and stands for a! distributions."""
    n, total = 2 * d - a, 0

    def walk(v, tangents, sinks, hooks):
        nonlocal total
        if v == 0:
            total += factorial(n) // hooks
            return
        if tangents:
            walk(v - 1, tangents - 1, sinks, hooks * (d - v + 1 + sinks))
        if sinks < d - a:
            walk(v - 1, tangents, sinks + 1, hooks * (d - v + 2 + sinks))

    walk(d, a, 0, 1)
    return factorial(a) * total


def test_position_dp_equals_the_gap_dp_past_degree_6():
    """The position DP against the gap-at-a-time DP summed over the
    oracle's distributions, on every connected degree-6 diagram and one
    diagram of each degree 7..20 (at every profile up to degree 8, else
    the ordinary one), and against the hook-length formula on the
    edgeless diagrams up to degree 16 at every lambda = 1^a, rho = 1^(d-a)."""
    no_tangency, ones = Partition(()), Partition.ones(6)
    for g in range(11):
        for diag in enumerate_diagrams(DiagramQuery(6, genus=g)):
            assert count_relative_markings(diag, no_tangency, ones) == gap_dp_markings(
                diag, no_tangency, ones
            ), diag.text()
    for text in GAP_DP_DIAGRAMS:
        diag = FloorDiagram.from_text(text)
        cases = profiles(diag.d) if diag.d <= 8 else [((), (1,) * diag.d)]
        for lam, rho in cases:
            lam, rho = Partition(lam), Partition(rho)
            assert count_relative_markings(diag, lam, rho) == gap_dp_markings(
                diag, lam, rho
            ), (text, lam, rho)
    assert count_markings(FloorDiagram.from_text(GAP_DP_DIAGRAMS[-1])) == (
        161491263418410355160379384321600
    )
    for d in range(1, 17):
        for a in range(d + 1):
            assert count_relative_markings(
                diagram(d), Partition.ones(a), Partition.ones(d - a)
            ) == hook_length_markings(d, a), (d, a)


def symmetry(diag):
    """Order of the automorphism group of the diagram's ordinary markings."""
    no_tangency, ones = Partition(()), Partition.ones(diag.d)
    dist = next(enumerate_distributions(diag, no_tangency, ones))
    return build_poset(diag, dist, no_tangency).symmetry


def test_marking_listing_equals_the_orbit_minimum_degree_5():
    # the oracle costs about 32 s over all 125 genus-0 degree-5 diagrams;
    # this sample has group orders 2 to 24
    family = [
        diag
        for diag in enumerate_diagrams(DiagramQuery(5, genus=0))
        if symmetry(diag) >= 2
    ]
    no_tangency, ones = Partition(()), Partition.ones(5)
    for diag in random.Random(3).sample(family, 12):
        assert list_markings(diag, no_tangency, ones) == marking_orbits_oracle(
            diag, no_tangency, ones
        ), diag.text()


def ordinary_markings(d, g):
    no_tangency, ones = Partition(()), Partition.ones(d)
    return [
        (diag, order)
        for diag in enumerate_diagrams(DiagramQuery(d, genus=g))
        for order in list_markings(diag, no_tangency, ones)
    ]


def test_sketch_svg_equals_the_fraction_oracle():
    cases = [(d, 0, seed) for d in range(1, 5) for seed in (0, 1)] + [(3, 1, 0)]
    cases = [(d, g, seed, ordinary_markings(d, g)) for d, g, seed in cases]
    # all 25,871 genus-0 degree-5 markings would take over a minute
    cases.append((5, 0, 0, random.Random(5).sample(ordinary_markings(5, 0), 300)))
    sketches = 0
    for d, g, seed, markings in cases:
        config = stretched_config(d, g, seed)
        for diag, order in markings:
            sketch = reconstruct(diag, order, config)
            assert verify_curve(sketch, d, g).ok, (diag.text(), order)
            assert sketch_svg(sketch) == sketch_svg_oracle(sketch), (diag.text(), order)
            sketches += 1
    assert sketches == 2 * (1 + 1 + 9 + 303) + 1 + 300


def test_sketch_svg_equals_the_fraction_oracle_off_the_configurations():
    # x = 66 maps to 40 + 520 * 67/1600 = 61.775, a tie at the second
    # decimal, so rounding the quotient and the product in another order
    # shows; heights near 10**30 have scaled integers past 2**53, so any
    # float conversion before the quotient shows
    top = Fraction(10**30)
    floor = FloorCurve(1, (Fraction(0), top), (), (Fraction(0),))
    elevators = tuple(
        Elevator(f"s1w1#{i}", x, 1, 1, None, top, None, (x, top - i - 1))
        for i, x in enumerate([Fraction(66), Fraction(1598)])
    )
    sketch = TropicalCurveSketch(1, 0, (floor,), elevators, ())
    assert sketch_svg(sketch) == sketch_svg_oracle(sketch)


def off_lattice_config():
    """A (3, 0)-configuration whose denominators 3, 7 and 11 do not divide
    2000, the lcm of every ``stretched_config``."""
    gap = (3**3 + 3) * (8 + 2) + 1
    thirds = (3, 7, 11)
    return StretchedConfig(
        3,
        0,
        tuple(
            (i + Fraction(1, thirds[i % 3]), i * gap + Fraction(2, thirds[(i + 1) % 3]))
            for i in range(1, 9)
        ),
    )


def test_lattice_reconstruction_equals_the_fraction_oracle():
    cases = [(d, 0, seed) for d in range(1, 5) for seed in (0, 1)]
    cases += [(3, 1, seed) for seed in (0, 1)]
    cases = [(d, g, stretched_config(d, g, seed), ordinary_markings(d, g)) for d, g, seed in cases]
    sample = random.Random(5).sample(ordinary_markings(5, 0), 300)
    cases.append((5, 0, stretched_config(5, 0, 0), sample))
    cases.append((3, 0, off_lattice_config(), ordinary_markings(3, 0)))
    sketches = 0
    for d, g, config, markings in cases:
        for diag, order in markings:
            sketch = reconstruct(diag, order, config)
            assert repr(sketch) == repr(reconstruct_oracle(diag, order, config)), order
            report = verify_curve(sketch, d, g)
            assert report.ok, (diag.text(), order)
            assert repr(report) == repr(verify_curve_oracle(sketch, d, g)), order
            sketches += 1
    assert sketches == 2 * (1 + 1 + 9 + 303) + 2 * 1 + 300 + 9


def test_broken_sketches_equal_the_fraction_oracles():
    # the README cubic on two configurations; 13 divides no denominator of
    # either, so a slope or point in thirteenths leaves both lattices
    diag = diagram(3, [(1, 2, 1), (2, 3, 1)])
    order = tuple("v1 e1-2w1#0 v2 e2-3w1#0 v3 s2w1#0 s3w1#0 s3w1#1".split())
    thirteenth = Fraction(1, 13)
    for config in (stretched_config(3, 0, 0), off_lattice_config()):
        sketch = reconstruct(diag, order, config)
        assert sketch_svg(sketch) == sketch_svg_oracle(sketch)
        broken = [perturb_elevator(sketch, i, +1) for i in range(len(sketch.elevators))]
        bounded = sketch.elevators[0]
        shifted = copy_with(bounded, x=bounded.x + Fraction(1, 7))
        broken.append(copy_with(sketch, elevators=(shifted, *sketch.elevators[1:])))
        floor = sketch.floors[1]
        for slopes in [
            (floor.slopes[0], floor.slopes[1] + thirteenth, *floor.slopes[2:]),
            (thirteenth, *floor.slopes[1:-1], floor.slopes[-1] + thirteenth),
        ]:
            bent = copy_with(floor, slopes=slopes)
            broken.append(copy_with(sketch, floors=(sketch.floors[0], bent, *sketch.floors[2:])))
        for bad in broken:
            report = verify_curve(bad, 3, 0)
            assert not report.ok
            assert repr(report) == repr(verify_curve_oracle(bad, 3, 0))
            assert sketch_svg(bad) == sketch_svg_oracle(bad)
        # the drawing must place a black point off its elevator exactly
        moved = copy_with(bounded, point=(bounded.point[0] + thirteenth, bounded.point[1]))
        off = copy_with(sketch, elevators=(moved, *sketch.elevators[1:]))
        assert sketch_svg(off) == sketch_svg_oracle(off)


def assert_bijection_matches_oracle(diag):
    tree = diagram_to_tree(diag)
    assert tree == diagram_to_tree_oracle(diag), diag.text()
    assert tree_to_diagram(tree) == tree_to_diagram_oracle(tree) == diag, diag.text()


def test_one_pass_bijection_equals_the_recursion():
    for d in range(1, 7):
        for diag in enumerate_diagrams(DiagramQuery(d, genus=0)):
            assert_bijection_matches_oracle(diag)
    # all 16,807 at d = 7 take about 4 s, most of it in the recursion
    for edges in random.Random(7).sample(all_diagrams(7, 6, True), 1500):
        assert_bijection_matches_oracle(FloorDiagram(7, edges))


def cli_text(capsys, *argv):
    assert main(list(argv)) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return out


def test_bijection_cli_text_equals_the_recursion(capsys):
    readme = "d=3; edges=(1,2,1);(2,3,2)"
    assert cli_text(capsys, "bijection", "to-tree", "--diagram", readme) == (
        "d=3; edges=(1,2);(1,3)\n"
    )
    for row in appendix_rows():
        if row["tree"] is None:
            continue
        diag = diagram(row["d"], [tuple(e) for e in row["edges"]])
        tree = diagram_to_tree_oracle(diag)
        assert cli_text(capsys, "bijection", "to-tree", "--diagram", diag.text()) == (
            tree.text() + "\n"
        )
        assert cli_text(capsys, "bijection", "to-diagram", "--tree", tree.text()) == (
            tree_to_diagram_oracle(tree).text() + "\n"
        )


@pytest.mark.parametrize(
    "d,edges",
    [
        (3, [(1, 2, 1), (2, 3, 1), (2, 3, 1)]),  # genus 1
        (3, [(1, 2, 1)]),  # disconnected
        (4, [(1, 2, 1), (2, 3, 1), (2, 3, 1)]),  # d - 1 edges: parallel pair, lone floor
        (5, [(1, 2, 1), (2, 3, 1), (2, 4, 1), (3, 4, 1)]),  # d - 1 edges: a 3-cycle
    ],
)
def test_bijection_rejects_what_the_recursion_rejects(d, edges):
    for to_tree in (diagram_to_tree, diagram_to_tree_oracle):
        with pytest.raises(DiagramError, match="^the tree bijection needs a connected genus-0 diagram$"):
            to_tree(diagram(d, edges))


@pytest.mark.parametrize(
    "text,message",
    [
        ("d=3; edges=(1,2)", "a tree on 3 vertices needs 2 edges"),
        ("d=4; edges=(1,2);(2,3);(1,3)", "tree must be connected"),
    ],
)
def test_non_trees_never_reach_the_bijection(text, message):
    with pytest.raises(DiagramError, match=f"^{message}$"):
        LabeledTree.from_text(text)
