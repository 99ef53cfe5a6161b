import json
import multiprocessing
import os
import re

import pytest

import sweep_rows
from floordiagrams.core import DiagramError, Partition, diagram
from floordiagrams.enumeration import DiagramQuery
from floordiagrams.invariants import (
    _forward_rows,
    _ones_rows,
    _weighted_marking_sum,
    gw,
    relative_gw,
    severi,
    welschinger,
)
from floordiagrams.markings import count_relative_markings, list_markings
from floordiagrams.nodepoly import enumerate_templates
from floordiagrams.oracles import (
    closed_form_gmax,
    closed_form_uninodal,
    collinear_triple,
    kontsevich_oracle,
    severi_split_oracle,
    tangency_at_point,
)
from floordiagrams.sequences import max_tangency_fixed
from floordiagrams.tables import gw_table, relative_table, severi_table

from conftest import run_optimized

P = Partition


def test_gw_small_values():
    assert gw(3, 0) == 12
    assert gw(4, 0) == 620
    assert gw(4, 1) == 225
    assert gw(4, 2) == 27
    assert gw(4, 3) == 1
    assert gw(2, 1) == 0


def test_gw_table_through_degree_four():
    for (d, g), expect in gw_table().items():
        if d <= 4:
            assert gw(d, g) == expect, (d, g)


def test_gw_rejects_bad_input():
    with pytest.raises(DiagramError):
        gw(0, 0)
    with pytest.raises(DiagramError):
        gw(3, -1)


def test_severi_values():
    assert severi(4, 4) == 666
    assert severi(3, 2) == 21
    for d in range(1, 5):
        assert severi(d, 0) == 1


def test_severi_table_through_degree_four():
    for (d, delta), expect in severi_table().items():
        if d <= 4:
            assert severi(d, delta) == expect, (d, delta)


def test_severi_equals_gw_for_low_cogenus():
    for d in range(2, 7):
        for delta in range(0, min(d - 1, 5)):
            g = (d - 1) * (d - 2) // 2 - delta
            assert severi(d, delta) == gw(d, g), (d, delta)


@pytest.mark.parametrize("d", range(1, 7))
def test_sweep_row_equals_enumerated_diagram_sum(d):
    """Every Severi degree of the sweep row equals the enumerate-then-count
    sum over the diagrams of that cogenus, which shares no code with it
    beyond the gap transfer."""
    for delta in range(d * (d - 1) // 2 + 1):
        expect = _weighted_marking_sum(DiagramQuery(d, cogenus=delta), P(()), P.ones(d))
        assert severi(d, delta) == expect, (d, delta)
    assert severi(d, d * (d - 1) // 2 + 1) == 0


@pytest.mark.parametrize("d", range(1, 7))
def test_split_inversion_equals_connected_diagram_sum(d):
    """The connected sums the sweep gives by inversion equal the
    enumerate-then-count sum over the connected diagrams of each genus."""
    for g in range((d - 1) * (d - 2) // 2 + 2):
        expect = _weighted_marking_sum(DiagramQuery(d, genus=g), P(()), P.ones(d))
        assert gw(d, g) == expect, (d, g)


def test_split_inversion_reaches_kontsevich_past_the_tables():
    # top degree first, so that one sweep serves every degree
    for d in (11, 10, 8, 7):
        assert gw(d, 0) == kontsevich_oracle(d), d


def test_both_readings_give_the_ones_rows():
    """Read from the first position on, the sweep capped at lambda empty
    and rho = 1^d gives the rows its own kernel reads from the last
    position back."""
    for d in range(1, 9):
        assert _forward_rows(d, (), (d,)) == _ones_rows(d, False), d


def test_sweep_rows_equal_their_pins():
    """Every row of every sweep key in ``tests/sweep_rows.py`` hashes to
    the digest it was pinned with."""
    pins = json.loads(sweep_rows.PINS.read_text())
    assert [entry["key"] for entry in pins] == [repr(key) for key in sweep_rows.SWEEPS]
    for key, entry in zip(sweep_rows.SWEEPS, pins):
        assert sweep_rows.digests(key) == entry["rows"], key


def _run_optimized(code: str):
    """``code`` in a fresh ``python -O`` process, with ``inv`` the invariants
    module and ``P`` the Partition class."""
    prelude = (
        "import math; from floordiagrams import invariants as inv; "
        "from floordiagrams.core import Partition as P; "
    )
    return run_optimized(prelude + code)


# rho = 1^4 runs the sweep read from the last position; a profile with a
# fixed tangency runs the forward sweep over all profiles
ONES_QUERY = "inv.severi(4, 2)"
ALL_PROFILE_QUERY = "inv.relative_gw(4, 0, P((2,)), P((1, 1)))"


def test_sweep_integrality_check_survives_optimize():
    # an off-by-one factorial leaves a fraction in the row
    proc = _run_optimized("inv.factorial = lambda n: math.factorial(n + 1); " + ONES_QUERY)
    assert proc.returncode != 0 and "AssertionError: degree-4 sweep" in proc.stderr


def test_forward_sweep_integrality_check_survives_optimize():
    proc = _run_optimized("inv.factorial = lambda n: math.factorial(n + 1); " + ALL_PROFILE_QUERY)
    assert proc.returncode != 0 and "AssertionError: degree-4 sweep" in proc.stderr


@pytest.mark.parametrize(
    "spare, query",
    [
        # rho = 1^4: every emission of the reading from the last position
        # that leaves spare budget
        pytest.param("left", ONES_QUERY, id="folded"),
        # every profile: every emission of the forward reading is divided by
        # its parallel-edge factor on its way into the emitted dict; one that
        # leaves budget for the split pass, and one that spends it all
        pytest.param("left", ALL_PROFILE_QUERY, id="split-pass"),
        pytest.param("not left", ALL_PROFILE_QUERY, id="forward-folded"),
    ],
)
def test_sweep_parallel_edge_check_survives_optimize(spare, query):
    # a parallel-edge factor off by a prime past N, so that no scaled value
    # absorbs it, on every emission with ``spare``; the message names the
    # prime, so the emission's own check caught it
    proc = _run_optimized(
        "emissions = inv._emissions; "
        "inv._emissions = lambda *key: tuple("
        f"(vec, left, weighs, parallel * 10007 if {spare} else parallel) "
        "for vec, left, weighs, parallel in emissions(*key)); " + query
    )
    assert proc.returncode != 0 and "AssertionError: degree-4 sweep: 10007 leaves " in proc.stderr


def test_sweep_split_symmetry_check_survives_optimize():
    # every t! u! above 1 off by the prime: in the sweep over all profiles
    # only a split with a choice has one, so the split pass's check names a
    # multiple of it
    proc = _run_optimized(
        "splits = inv.floor_splits; "
        "inv.floor_splits = lambda *key: tuple("
        "(lam, rho, sunk, symmetry * 10007 if symmetry > 1 else symmetry) "
        "for lam, rho, sunk, symmetry in splits(*key)); " + ALL_PROFILE_QUERY
    )
    caught = re.search(r"AssertionError: degree-4 sweep: (\d+) leaves ", proc.stderr)
    assert proc.returncode != 0 and caught and int(caught[1]) % 10007 == 0


def test_forward_sweep_weight_check_survives_optimize():
    # every split keeps the parts it took, so each diagram closes on parts
    # that weigh less than its floors
    proc = _run_optimized(
        "splits = inv.floor_splits; "
        "inv.floor_splits = lambda left, lam, rho: tuple("
        "(lam, rho, sunk, symmetry) for *_, sunk, symmetry in splits(left, lam, rho)); "
        + ALL_PROFILE_QUERY
    )
    assert proc.returncode != 0 and "AssertionError: degree-4 sweep closes 1 floors" in proc.stderr


def test_split_oracle_examples():
    """gw inverts the sweep over the component holding floor 1, which is
    the splitting formula in exponential form, so these agree with severi
    by construction; they check the splitting enumerator, not the sweep."""
    assert severi_split_oracle(4, 4) == 666
    assert severi_split_oracle(3, 2) == 21
    assert severi_split_oracle(5, 0) == 1


def test_split_oracle_matches_direct_enumeration():
    """An identity, because gw inverts the sweep's rows by this formula in
    exponential form: a sweep that breaks the Severi table still passes.
    The tables, test_oracles.py and the enumerate-then-count sums are the
    independent checks."""
    for d in range(1, 5):
        for delta in range(0, 5):
            assert severi(d, delta) == severi_split_oracle(d, delta), (d, delta)


def test_relative_figure_totals():
    ref = relative_table()
    for (lam_text, rho_text), expect in zip(ref["columns"], ref["totals"]):
        lam, rho = P.parse(lam_text), P.parse(rho_text)
        assert relative_gw(3, 0, lam, rho) == expect


def test_relative_genus1_values():
    assert relative_gw(3, 1, P((1,)), P((2,))) == 2
    assert relative_gw(3, 1, P(()), P((2, 1))) == 4
    assert relative_gw(3, 1, P(()), P((3,))) == 3


def test_relative_conics():
    assert relative_gw(2, 0, P(()), P((2,))) == 2
    assert relative_gw(2, 0, P((2,)), P(())) == 1
    assert relative_gw(2, 0, P((1, 1)), P(())) == 1


def test_relative_reduces_to_gw():
    for d in range(1, 5):
        for g in (0, 1):
            base = gw(d, g)
            assert relative_gw(d, g, P(()), P.ones(d)) == base
            assert relative_gw(d, g, P((1,)), P.ones(d - 1)) == base
            if d >= 2:
                assert relative_gw(d, g, P((1, 1)), P.ones(d - 2)) == base


def test_relative_fixed_vs_free_tangency():
    for d in range(1, 6):
        assert relative_gw(d, 0, P(()), P((d,))) == d * relative_gw(
            d, 0, P((d,)), P(())
        )


def test_relative_matches_max_tangency_sequence():
    for d in range(1, 6):
        assert relative_gw(d, 0, P((d,)), P(())) == max_tangency_fixed(d)


NON_INTEGER_CALLS = {
    "gw(3, 0.5)": lambda: gw(3, 0.5),
    "severi(3, 0.5)": lambda: severi(3, 0.5),
    "relative_gw(3, 0.5, (), 1^3)": lambda: relative_gw(3, 0.5, P(()), P.ones(3)),
    "severi(3.0, 1)": lambda: severi(3.0, 1),
    "gw(3.0, 0)": lambda: gw(3.0, 0),
    "welschinger(3.0)": lambda: welschinger(3.0),
}


@pytest.mark.parametrize("call", NON_INTEGER_CALLS.values(), ids=NON_INTEGER_CALLS.keys())
def test_invariants_reject_non_integer_arguments(call):
    # the integer calls answer first, so a cache keyed by value alone would
    # hand 3.0 the answer for 3
    assert gw(3, 0) == relative_gw(3, 0, P(()), P.ones(3)) == severi(3, 1) == 12
    with pytest.raises(DiagramError, match="must be an integer"):
        call()


UNHASHABLE_CALLS = {
    "gw([3], 0)": lambda: gw([3], 0),
    "severi(3, [0])": lambda: severi(3, [0]),
    "relative_gw(3, 0, [2], (1))": lambda: relative_gw(3, 0, [2], P((1,))),
    "max_tangency_fixed([3])": lambda: max_tangency_fixed([3]),
    "enumerate_templates([1])": lambda: enumerate_templates([1]),
    "list_markings(d=2, [], [1, 1])": lambda: list_markings(diagram(2), [], [1, 1]),
}


@pytest.mark.parametrize("call", UNHASHABLE_CALLS.values(), ids=UNHASHABLE_CALLS.keys())
def test_memoized_entry_points_refuse_unhashable_arguments(call):
    # a list skips the cache, whose key it cannot be, and meets the
    # function's own checks instead of a raw TypeError; list_markings has no
    # cache and checks its profile before it reads a length off lambda or rho
    with pytest.raises(DiagramError, match="must be an integer|must be Partitions"):
        call()


def test_relative_rejects_size_mismatch():
    with pytest.raises(DiagramError):
        relative_gw(3, 0, P((2,)), P((2,)))
    # a tuple is not a profile, whatever its size
    with pytest.raises(DiagramError, match="must be Partitions"):
        relative_gw(3, 0, (2,), (1,))
    with pytest.raises(DiagramError, match="must be Partitions"):
        count_relative_markings(diagram(2, [(1, 2, 1)]), (), (1, 1))
    with pytest.raises(DiagramError, match="must be Partitions"):
        list_markings(diagram(2, [(1, 2, 1)]), (), (1, 1))


def test_welschinger():
    assert welschinger(1) == 1
    assert welschinger(3) == 8
    assert welschinger(4) == 240


def test_kontsevich():
    assert kontsevich_oracle(2) == 1
    assert kontsevich_oracle(4) == 620
    assert kontsevich_oracle(5) == 87304
    for d in range(1, 6):
        assert kontsevich_oracle(d) == gw(d, 0)


def test_closed_form_gmax():
    assert closed_form_gmax(3, P(()), P((2, 1))) == 4
    for d in range(1, 6):
        assert closed_form_gmax(d, P(()), P.ones(d)) == 1
    assert closed_form_gmax(3, P((3,)), P(())) == 1  # empty product


def test_closed_form_gmax_matches_engine():
    for d in (2, 3, 4):
        gmax = (d - 1) * (d - 2) // 2
        for lam, rho in [(P(()), P((d,))), (P((1,)), P.ones(d - 1))]:
            assert closed_form_gmax(d, lam, rho) == relative_gw(d, gmax, lam, rho)


def test_closed_form_uninodal():
    for d in (3, 4, 5, 6):
        assert closed_form_uninodal(d, P(()), P.ones(d)) == 3 * (d - 1) ** 2
    assert closed_form_uninodal(4, P((2, 1, 1)), P(())) == 22


def test_closed_form_uninodal_matches_engine():
    cases = [
        (3, P(()), P((2, 1))),
        (3, P((1,)), P((2,))),
        (4, P((2, 1, 1)), P(())),
        (4, P(()), P.ones(4)),
    ]
    for d, lam, rho in cases:
        g = (d - 1) * (d - 2) // 2 - 1
        assert closed_form_uninodal(d, lam, rho) == relative_gw(d, g, lam, rho)


def test_collinear_triple():
    assert collinear_triple(3, 0) == 10
    assert collinear_triple(4, 0) == 620 - 3 * 12
    assert collinear_triple(3, 1) == 1


def test_collinear_triple_matches_engine():
    for d, g in [(3, 0), (3, 1), (4, 0), (4, 1)]:
        assert collinear_triple(d, g) == relative_gw(d, g, P.ones(3), P.ones(d - 3))


def test_tangency_at_point():
    assert tangency_at_point(3, 0, 2) == 10
    assert tangency_at_point(3, 1, 2) == 1
    for d, g in [(3, 0), (4, 0), (4, 1)]:
        assert tangency_at_point(d, g, 1) == gw(d, g)


def test_tangency_at_point_rejects_bad_k():
    with pytest.raises(DiagramError):
        tangency_at_point(3, 0, 3)
    with pytest.raises(DiagramError):
        tangency_at_point(3, 0, 0)


def test_thread_env_is_ignored(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("the invariant sum must not start a pool")

    monkeypatch.setenv("FLOORDIAGRAMS_THREADS", "2")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    gw.cache_clear()
    try:
        assert gw(5, 0) == gw_table()[(5, 0)]
    finally:
        gw.cache_clear()
