"""The Caporaso-Harris recursion against the floor-diagram engine.

The recursion shares no code with floor diagrams or templates, so it
checks the sweep behind ``severi`` at every cogenus, past the frozen
tables, the enumerate-then-count sum at every tangency profile, and the
node polynomials past their threshold.
"""

import pytest

from floordiagrams.core import Partition
from floordiagrams.enumeration import DiagramQuery
from floordiagrams.invariants import _weighted_marking_sum, severi
from floordiagrams.nodepoly import node_polynomial
from floordiagrams.oracles import caporaso_harris
from floordiagrams.tables import severi_table


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


@pytest.mark.parametrize("d", range(1, 8))
def test_recursion_equals_sweep_row(d):
    top = d * (d - 1) // 2
    for delta in range(top + 2):
        assert caporaso_harris(d, delta, (), (d,)) == severi(d, delta), (d, delta)
    assert severi(d, top) > 0 and severi(d, top + 1) == 0


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


def test_recursion_equals_node_polynomials_past_threshold():
    for delta in range(6):
        poly, threshold = node_polynomial(delta)
        assert threshold == 2 * delta
        for d in range(threshold, threshold + 6):
            assert poly.eval_int(d) == caporaso_harris(d, delta), (delta, d)
