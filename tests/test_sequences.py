import itertools
from fractions import Fraction

import pytest

from floordiagrams.core import DiagramError, FloorDiagram, diagram
from floordiagrams.enumeration import DiagramQuery, count_filtered, enumerate_diagrams
from floordiagrams.sequences import (
    LabeledTree,
    alternating_tree_count,
    cayley_count,
    closed_counts,
    diagram_to_tree,
    max_tangency_fixed,
    max_tangency_free,
    ode_residual,
    tangency_series,
    tree_to_diagram,
)
from floordiagrams.oracles import (
    increasing_tree_diagrams,
    increasing_tree_oracle,
    max_tangency_compositions_oracle,
)
from floordiagrams.tables import appendix_rows, max_tangency_table

F = Fraction


def all_trees(d):
    """Every labeled tree on 1..d, via Pruefer sequences (independent path)."""
    if d == 1:
        yield LabeledTree(1, frozenset())
        return
    for seq in itertools.product(range(1, d + 1), repeat=d - 2):
        degree = [1] * (d + 1)
        for v in seq:
            degree[v] += 1
        edges = []
        for v in seq:
            for leaf in range(1, d + 1):
                if degree[leaf] == 1:
                    edges.append((min(leaf, v), max(leaf, v)))
                    degree[leaf] -= 1
                    degree[v] -= 1
                    break
        last = [v for v in range(1, d + 1) if degree[v] == 1]
        edges.append((min(last), max(last)))
        yield LabeledTree(d, frozenset(edges))


def test_z_values_against_published_table():
    for d, fixed, free in max_tangency_table():
        assert max_tangency_fixed(d) == fixed, d
        assert max_tangency_free(d) == free, d


def test_z_small_cases():
    assert max_tangency_fixed(3) == 7
    assert max_tangency_fixed(4) == 138
    assert max_tangency_free(1) == 1


def test_z_rejects_bad_degree():
    with pytest.raises(DiagramError):
        max_tangency_fixed(0)


def test_increasing_tree_diagrams_are_valid_and_counted():
    for d in range(1, 7):
        diagrams = list(increasing_tree_diagrams(d))
        expect = 1 if d == 1 else __import__("math").factorial(d - 1)
        assert len(diagrams) == expect
        for diag_ in diagrams:
            shape = diag_.classify()
            assert shape.connected and shape.genus == 0


def test_increasing_tree_oracle_matches_recurrence():
    for d in range(1, 7):
        assert increasing_tree_oracle(d) == max_tangency_fixed(d)


def test_exponential_read_off_matches_the_composition_sum():
    for d in range(1, 31):
        assert max_tangency_compositions_oracle(d) == max_tangency_fixed(d), d


def test_increasing_tree_oracle_guard():
    with pytest.raises(DiagramError):
        increasing_tree_oracle(8)


def test_tangency_series_prefix():
    assert tangency_series(4) == [F(1, 2), F(1, 6), F(7, 80), F(23, 420)]


def test_ode_residual_vanishes():
    assert all(c == 0 for c in ode_residual(8))


def test_diagram_tree_bijection_on_appendix_rows():
    for row in appendix_rows():
        if row["tree"] is None:
            continue
        diag_ = diagram(row["d"], [tuple(e) for e in row["edges"]])
        tree = diagram_to_tree(diag_)
        assert tree.edges == frozenset(tuple(e) for e in row["tree"]), diag_.text()


def test_bijection_round_trip():
    for d in range(1, 6):
        for diag_ in enumerate_diagrams(DiagramQuery(d, genus=0)):
            tree = diagram_to_tree(diag_)
            assert tree_to_diagram(tree) == diag_


def test_bijection_covers_all_trees():
    for d in range(1, 6):
        images = {diagram_to_tree(diag_).edges for diag_ in enumerate_diagrams(DiagramQuery(d, genus=0))}
        expected = {t.edges for t in all_trees(d)}
        assert images == expected


def test_bijection_rejects_positive_genus():
    with pytest.raises(DiagramError):
        diagram_to_tree(diagram(3, [(1, 2, 1), (2, 3, 1), (2, 3, 1)]))


def test_short_edge_correspondence():
    # weight-1 edge i -> i+1 in the diagram iff edge (i, i+1) in the tree
    for d in range(2, 6):
        for diag_ in enumerate_diagrams(DiagramQuery(d, genus=0)):
            tree = diagram_to_tree(diag_)
            for i in range(1, d):
                in_diag = (i, i + 1, 1) in diag_.edges
                in_tree = (i, i + 1) in tree.edges
                assert in_diag == in_tree, (diag_.text(), i)


def test_subset_short_edge_equinumerosity():
    for d in range(2, 6):
        trees = list(all_trees(d))
        diagrams = list(enumerate_diagrams(DiagramQuery(d, genus=0)))
        for r in range(1, d):
            for subset in itertools.combinations(range(1, d), r):
                tree_count = sum(
                    1
                    for t in trees
                    if all((a, a + 1) in t.edges for a in subset)
                )
                diag_count = sum(
                    1
                    for diag_ in diagrams
                    if all((a, a + 1, 1) in diag_.edges for a in subset)
                )
                assert tree_count == diag_count, (d, subset)


def test_heavy_edge_count_is_factorial():
    from math import factorial

    for d in range(3, 7):
        assert count_filtered(d, 0, f"has-weight={d - 1}") == factorial(d - 2)


def test_chain_count_formula():
    for d in range(3, 6):
        for a in range(1, d):
            for b in range(1, d - a + 1):
                spec = ";".join(f"({a + i},{a + i + 1},1)" for i in range(b))
                got = count_filtered(d, 0, f"contains={spec}")
                assert got == (b + 1) * d ** (d - b - 2), (d, a, b)


def test_closed_count_formulas():
    assert [alternating_tree_count(d) for d in range(1, 5)] == [1, 1, 2, 7]
    assert cayley_count(2) == 1
    assert cayley_count(1) == 1
    report = closed_counts(4)
    assert report.alternating_formula == 7
    assert report.odd_formula == 8
    report5 = closed_counts(5)
    assert report5.odd_formula == 46
    assert report5.simple_enumerated == 36


def test_closed_counts_consistency():
    for d in range(1, 6):
        report = closed_counts(d)
        assert report.cayley == report.genus0_enumerated
        assert report.odd_formula == report.odd_enumerated


def test_tree_validation():
    with pytest.raises(DiagramError):
        LabeledTree(3, frozenset({(1, 2)}))
    with pytest.raises(DiagramError):
        LabeledTree(4, frozenset({(1, 2), (3, 4), (1, 2)}))
    with pytest.raises(DiagramError):
        LabeledTree(2, frozenset({(1, 3)}))
    # 1-2-3 is a cycle, but (4,6) leaving 1..5 is reported first
    with pytest.raises(DiagramError, match=r"^tree edge \(4,6\) out of range$"):
        LabeledTree(5, frozenset({(1, 2), (2, 3), (1, 3), (4, 6)}))
    # a 3-cycle and the isolated vertex 4: d - 1 edges, all in range
    with pytest.raises(DiagramError, match=r"^tree must be connected$"):
        LabeledTree(4, frozenset({(1, 2), (2, 3), (1, 3)}))
    assert LabeledTree(3, frozenset({(3, 1), (2, 3)})).edges == frozenset({(1, 3), (2, 3)})
    text = LabeledTree(3, frozenset({(1, 3), (2, 3)})).text()
    assert LabeledTree.from_text(text).edges == frozenset({(1, 3), (2, 3)})


@pytest.mark.parametrize("d", ["3", 3.0, None])
def test_tree_size_must_be_an_integer(d):
    with pytest.raises(DiagramError, match=r"^tree size must be an integer, got "):
        LabeledTree(d, frozenset({(1, 2), (2, 3)}))


@pytest.mark.parametrize(
    "edges",
    [{(1, 2, 3)}, {(1,)}, {(1, 2.0)}, {("1", 2)}, {1}, [(1, 2), (2, 3, 1)]],
)
def test_tree_edges_must_be_integer_pairs(edges):
    with pytest.raises(DiagramError, match=r"^tree edges must be pairs of integers, got "):
        LabeledTree(2 if len(edges) == 1 else 3, edges)


def test_tree_stores_plain_integers():
    class Size(int):
        pass

    tree = LabeledTree(Size(1), frozenset())
    assert tree.d == 1 and type(tree.d) is int
    with pytest.raises(DiagramError, match="tree size must be an integer, got True"):
        LabeledTree(True, frozenset())


def test_every_degree_7_diagram_round_trips():
    # past the frozen tables, which stop at d = 6
    trees = set()
    for diag_ in enumerate_diagrams(DiagramQuery(7, genus=0)):
        tree = diagram_to_tree(diag_)
        assert tree_to_diagram(tree) == diag_, diag_.text()
        trees.add(tree.edges)
    assert len(trees) == 7**5
