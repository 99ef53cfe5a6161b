import itertools
import time

import pytest
from hypothesis import given

from floordiagrams.core import DiagramError, FloorDiagram, Partition, diagram
from floordiagrams.enumeration import (
    DiagramQuery,
    all_diagrams,
    count_connected,
    enumerate_diagrams,
)
from floordiagrams.invariants import gw, relative_gw, severi, welschinger
from floordiagrams.nodepoly import (
    RatPolynomial,
    Template,
    aj_polynomials,
    discrete_sum,
    enumerate_templates,
    node_polynomial,
)
from floordiagrams.oracles import distinct_orderings
from floordiagrams.sequences import (
    LabeledTree,
    alternating_tree_count,
    cayley_count,
    closed_counts,
    max_tangency_fixed,
    max_tangency_free,
    odd_diagram_count,
    ode_residual,
    tangency_series,
)
from floordiagrams.tropical import StretchedConfig, stretched_config

from conftest import small_diagrams

EXAMPLE = diagram(4, [(1, 2, 1), (2, 3, 1), (2, 3, 1), (3, 4, 2)])
ONE = RatPolynomial.constant(1)


def test_divergence_example_diagram():
    assert [EXAMPLE.divergence(v) for v in range(1, 5)] == [1, 1, 0, -2]
    assert EXAMPLE.divergences() == [1, 1, 0, -2]


def test_divergence_single_vertex():
    assert diagram(1).divergence(1) == 0


def test_divergence_weighted_chain():
    chain = diagram(3, [(1, 2, 1), (2, 3, 2)])
    assert chain.divergence(2) == 1


def test_validation_visits_edge_endpoints_only():
    # an edgeless diagram of huge degree validates without a pass over 1..d
    assert FloorDiagram(10**9).divergence(10**9) == 0


def test_genus_and_connectivity_visit_edge_endpoints_only():
    start = time.perf_counter()
    huge = FloorDiagram(10**9, ((1, 2, 1),))
    assert huge.genus() == 0
    assert not huge.connected
    assert time.perf_counter() - start < 1
    assert diagram(3, [(1, 2, 1), (2, 3, 1)]).connected
    assert diagram(1).connected and diagram(1).genus() == 0
    assert diagram(3, [(1, 3, 1)]).genus() == 0
    assert not diagram(3, [(1, 3, 1)]).connected


def test_divergence_out_of_range():
    with pytest.raises(DiagramError):
        EXAMPLE.divergence(5)
    with pytest.raises(DiagramError):
        EXAMPLE.divergence(0)


def test_classify_example():
    shape = EXAMPLE.classify()
    assert (shape.components, shape.degree, shape.genus, shape.cogenus) == (1, 4, 1, 2)
    assert shape.connected


def test_classify_single_vertex():
    shape = diagram(1).classify()
    assert (shape.components, shape.degree, shape.genus, shape.cogenus) == (1, 1, 0, 0)


def test_classify_two_isolated_vertices():
    shape = diagram(2).classify()
    assert shape.components == 2
    assert shape.cogenus == 1
    assert not shape.connected


def test_cogenus_depends_only_on_component_data():
    # one edge on {1,2} next to three isolated vertices, in two placements
    left = diagram(5, [(1, 2, 1)])
    right = diagram(5, [(4, 5, 1)])
    assert left.classify().cogenus == right.classify().cogenus


def test_multiplicity():
    assert EXAMPLE.multiplicity() == 4
    assert diagram(3, [(1, 2, 1), (2, 3, 1)]).multiplicity() == 1
    assert diagram(3, [(1, 2, 1), (2, 3, 2)]).multiplicity() == 4
    assert diagram(1).multiplicity() == 1


@pytest.mark.parametrize(
    "d,edges",
    [
        (0, []),
        (2, [(1, 1, 1)]),      # loop
        (2, [(2, 1, 1)]),      # backward
        (2, [(1, 2, 0)]),      # zero weight
        (3, [(1, 2, 1), (1, 3, 1)]),  # divergence 2 at vertex 1
        (2, [(1, 3, 1)]),      # target out of range
    ],
)
def test_validation_rejects(d, edges):
    with pytest.raises(DiagramError):
        diagram(d, edges)


def test_degree_one_is_the_unique_valid_degree_one_diagram():
    assert diagram(1).classify().genus == 0
    with pytest.raises(DiagramError):
        diagram(1, [(1, 1, 1)])


def test_text_round_trip():
    text = EXAMPLE.text()
    assert text == "d=4; edges=(1,2,1);(2,3,1);(2,3,1);(3,4,2)"
    assert FloorDiagram.from_text(text) == EXAMPLE
    assert FloorDiagram.from_text(diagram(1).text()) == diagram(1)


def test_json_round_trip():
    assert FloorDiagram.from_json(EXAMPLE.to_json()) == EXAMPLE


def test_edges_stored_sorted():
    a = diagram(3, [(2, 3, 1), (1, 2, 1)])
    b = diagram(3, [(1, 2, 1), (2, 3, 1)])
    assert a == b
    assert a.edges == ((1, 2, 1), (2, 3, 1))


def test_from_text_rejects_garbage():
    with pytest.raises(DiagramError):
        FloorDiagram.from_text("edges=(1,2,1)")
    with pytest.raises(DiagramError):
        FloorDiagram.from_text("d=3; edges=(1,2)")
    with pytest.raises(DiagramError):
        FloorDiagram.from_text("d=3; edges=(1,2,x)")
    with pytest.raises(DiagramError):
        FloorDiagram.from_json('{"edges": []}')


@given(small_diagrams())
def test_divergences_sum_to_zero(diag):
    assert sum(diag.divergence(v) for v in range(1, diag.d + 1)) == 0


@given(small_diagrams())
def test_divergence_budgets_sum_to_degree(diag):
    assert sum(1 - diag.divergence(v) for v in range(1, diag.d + 1)) == diag.d


@given(small_diagrams())
def test_cut_crossing_weight_bound(diag):
    for q in range(2, diag.d + 1):
        crossing = sum(w for s, t, w in diag.edges if s < q <= t)
        assert crossing <= q - 1


@given(small_diagrams())
def test_component_count_matches_vertex_sets(diag):
    comps = diag.component_vertex_sets()
    assert diag.connected == (len(comps) == 1)
    assert diag.genus() == len(diag.edges) - diag.d + len(comps)


@given(small_diagrams())
def test_text_round_trip_property(diag):
    assert FloorDiagram.from_text(diag.text()) == diag
    assert FloorDiagram.from_json(diag.to_json()) == diag


def test_partition_basics():
    p = Partition((3, 2, 2, 1))
    assert p.size == 8
    assert p.length == 4
    assert p.count(2) == 2
    assert distinct_orderings(p) == 12
    assert distinct_orderings(Partition(())) == 1
    assert str(Partition.parse("2,1")) == "2,1"
    assert Partition.parse("") == Partition(())


def test_constructors_reject_non_integers():
    # each was truncated (or accepted, failing later) by int()
    with pytest.raises(DiagramError):
        Partition((2.9, 1))
    with pytest.raises(DiagramError, match="edge entries must be integers"):
        FloorDiagram(3, ((1, 2.7, 1.9), (2, 3, 1)))
    with pytest.raises(DiagramError, match="edge entries must be integers"):
        FloorDiagram(3, ((1, "2", 1),))
    with pytest.raises(DiagramError, match="degree must be an integer"):
        FloorDiagram(3.5, ())
    with pytest.raises(DiagramError, match="degree must be an integer"):
        FloorDiagram("3", ())
    with pytest.raises(DiagramError):
        FloorDiagram.from_json('{"d": 3.5, "edges": []}')
    # malformed entries: an edge of two or four entries or of none, edges
    # that are no iterable, a template edge of two, a point of three
    # coordinates or not a number
    edge = "edge entries must be integers"
    for make, message in [
        (lambda: diagram(3, [(1, 2)]), edge),
        (lambda: diagram(3, [(1, 2, 1, 1)]), edge),
        (lambda: diagram(3, [5]), edge),
        (lambda: diagram(3, 5), edge),
        (lambda: Template(((0, 1),)), f"template {edge}"),
        (lambda: StretchedConfig(1, 0, ((1, 2, 3), (4, 5, 6))), "points must be pairs of rationals"),
        (lambda: StretchedConfig(1, 0, (("a", 1), (2, 3))), "points must be pairs of rationals"),
    ]:
        with pytest.raises(DiagramError, match=f"^{message}, got "):
            make()


NON_INTEGER_SIZES = {
    "node_polynomial(2.0)": lambda: node_polynomial(2.0),
    "aj_polynomials(1.5)": lambda: aj_polynomials(1.5),
    "aj_polynomials(2.0)": lambda: aj_polynomials(2.0),
    "enumerate_templates(1.0)": lambda: enumerate_templates(1.0),
    "max_tangency_fixed(3.0)": lambda: max_tangency_fixed(3.0),
    "max_tangency_free(3.0)": lambda: max_tangency_free(3.0),
    "ode_residual(2.0)": lambda: ode_residual(2.0),
    "tangency_series(2.0)": lambda: tangency_series(2.0),
    "stretched_config(2.5, 0)": lambda: stretched_config(2.5, 0),
    "stretched_config(2, 0.5)": lambda: stretched_config(2, 0.5),
    "stretched_config(2, 0, 0.5)": lambda: stretched_config(2, 0, 0.5),
    "Partition.ones(2.0)": lambda: Partition.ones(2.0),
    "divergence(1.0)": lambda: EXAMPLE.divergence(1.0),
    "divergence('1')": lambda: EXAMPLE.divergence("1"),
    "discrete_sum(1, 0.5, 0)": lambda: discrete_sum(ONE, 0.5, 0),
    "discrete_sum(1, 0, 0.5)": lambda: discrete_sum(ONE, 0, 0.5),
    "all_diagrams(3, 2.0)": lambda: all_diagrams(3, 2.0),
}


@pytest.mark.parametrize("call", NON_INTEGER_SIZES.values(), ids=NON_INTEGER_SIZES.keys())
def test_sizes_reject_non_integers(call):
    # the integer calls answer first, so a cache keyed by value alone would
    # hand 2.0 the answer for 2
    assert node_polynomial(2)[1] == 4 and len(aj_polynomials(2)) == 2
    assert len(enumerate_templates(1)) == 2
    assert max_tangency_fixed(3) == 7 and max_tangency_free(3) == 21
    assert ode_residual(2) == [0, 0]
    with pytest.raises(DiagramError, match="must be an integer"):
        call()


BOOL_SIZES = {
    "gw(True, 0)": lambda: gw(True, 0),
    "severi(True, 0)": lambda: severi(True, 0),
    "stretched_config(True, 0)": lambda: stretched_config(True, 0),
    "divergence(True)": lambda: EXAMPLE.divergence(True),
    "discrete_sum(1, True, 0)": lambda: discrete_sum(ONE, True, 0),
    "all_diagrams(3, True)": lambda: all_diagrams(3, True),
}


@pytest.mark.parametrize("call", BOOL_SIZES.values(), ids=BOOL_SIZES.keys())
def test_sizes_reject_bools(call):
    # True == 1, but the typed caches keep the entry for 1 from True
    assert gw(1, 0) == 1 and severi(1, 0) == 1
    with pytest.raises(DiagramError, match="must be an integer, got True"):
        call()


# every entry point and size argument below its least value, with the one
# message of each form that core.as_int gives
BELOW_RANGE = {
    "FloorDiagram(0)": (lambda: FloorDiagram(0), "degree must be positive, got 0"),
    "Partition.ones(-1)": (lambda: Partition.ones(-1), "part count must be nonnegative, got -1"),
    "all_diagrams(0, 0)": (lambda: all_diagrams(0, 0), "degree must be positive, got 0"),
    "all_diagrams(3, -1)": (
        lambda: all_diagrams(3, -1), "edge count must be nonnegative, got -1"
    ),
    "DiagramQuery(0, genus=0)": (
        lambda: DiagramQuery(0, genus=0), "degree must be positive, got 0"
    ),
    "DiagramQuery(3, genus=-1)": (
        lambda: DiagramQuery(3, genus=-1), "genus must be nonnegative, got -1"
    ),
    "DiagramQuery(3, cogenus=-1)": (
        lambda: DiagramQuery(3, cogenus=-1), "cogenus must be nonnegative, got -1"
    ),
    "count_connected(0, 0)": (lambda: count_connected(0, 0), "degree must be positive, got 0"),
    "count_connected(3, -1)": (
        lambda: count_connected(3, -1), "genus must be nonnegative, got -1"
    ),
    "gw(0, 0)": (lambda: gw(0, 0), "degree must be positive, got 0"),
    "gw(3, -1)": (lambda: gw(3, -1), "genus must be nonnegative, got -1"),
    "severi(0, 0)": (lambda: severi(0, 0), "degree must be positive, got 0"),
    "severi(3, -1)": (lambda: severi(3, -1), "cogenus must be nonnegative, got -1"),
    "relative_gw(0, 0, (), ())": (
        lambda: relative_gw(0, 0, Partition(()), Partition(())),
        "degree must be positive, got 0",
    ),
    "relative_gw(3, -1, (), 1^3)": (
        lambda: relative_gw(3, -1, Partition(()), Partition.ones(3)),
        "genus must be nonnegative, got -1",
    ),
    "welschinger(0)": (lambda: welschinger(0), "degree must be positive, got 0"),
    "enumerate_templates(-1)": (
        lambda: enumerate_templates(-1), "cogenus must be nonnegative, got -1"
    ),
    "node_polynomial(-1)": (lambda: node_polynomial(-1), "cogenus must be nonnegative, got -1"),
    "aj_polynomials(0)": (lambda: aj_polynomials(0), "cogenus must be positive, got 0"),
    "LabeledTree(0)": (lambda: LabeledTree(0, frozenset()), "tree size must be positive, got 0"),
    "max_tangency_fixed(0)": (lambda: max_tangency_fixed(0), "degree must be positive, got 0"),
    "max_tangency_free(0)": (lambda: max_tangency_free(0), "degree must be positive, got 0"),
    "tangency_series(-1)": (lambda: tangency_series(-1), "order must be nonnegative, got -1"),
    "ode_residual(0)": (lambda: ode_residual(0), "order must be positive, got 0"),
    "closed_counts(0)": (lambda: closed_counts(0), "degree must be positive, got 0"),
    "cayley_count(0)": (lambda: cayley_count(0), "degree must be positive, got 0"),
    "alternating_tree_count(0)": (
        lambda: alternating_tree_count(0), "degree must be positive, got 0"
    ),
    "odd_diagram_count(0)": (lambda: odd_diagram_count(0), "degree must be positive, got 0"),
    "stretched_config(0, 0)": (lambda: stretched_config(0, 0), "degree must be positive, got 0"),
    "stretched_config(2, -1)": (
        lambda: stretched_config(2, -1), "genus must be nonnegative, got -1"
    ),
    "StretchedConfig(0, 1, ())": (
        lambda: StretchedConfig(0, 1, ()), "degree must be positive, got 0"
    ),
    "StretchedConfig(1, -1, ())": (
        lambda: StretchedConfig(1, -1, ()), "genus must be nonnegative, got -1"
    ),
}


@pytest.mark.parametrize("call, message", BELOW_RANGE.values(), ids=BELOW_RANGE.keys())
def test_sizes_reject_values_below_range(call, message):
    with pytest.raises(DiagramError) as info:
        call()
    assert str(info.value) == message


def test_least_sizes_are_accepted():
    assert Partition.ones(0) == Partition(()) and tangency_series(0) == []
    assert enumerate_templates(0) == () and node_polynomial(0)[1] == 0


# a bool entry of a value class, in each place where it would pass as 0 or 1
BOOL_ENTRIES = {
    "partition part": lambda: Partition((2, True)),
    "diagram source": lambda: diagram(3, [(1, 2, 1), (True, 3, 1)]),
    "diagram target": lambda: diagram(3, [(1, True, 1)]),
    "diagram weight": lambda: diagram(2, [(1, 2, True)]),
    "tree vertex": lambda: LabeledTree(2, {(True, 2)}),
    "template start": lambda: Template(((False, 2, 2),)),
    "template end": lambda: Template(((0, True, 2),)),
    "template weight": lambda: Template(((0, 2, True),)),
}


@pytest.mark.parametrize("call", BOOL_ENTRIES.values(), ids=BOOL_ENTRIES.keys())
def test_entries_reject_bools(call):
    with pytest.raises(DiagramError, match=r"must be (pairs of )?integers, got .*(True|False)"):
        call()


@pytest.mark.parametrize(
    "edges, tree",
    [
        ("(1,2,1", "(1,3"),
        ("1,2,1)", "1,3)"),
        ("1,2,1", "1,3"),
        ("((1,2,1))", "((1,3))"),
        ("(1,2,1);2,3,1", "(1,3);2,3"),
    ],
)
def test_each_tuple_is_one_parenthesised_group(edges, tree):
    with pytest.raises(DiagramError, match="cannot parse diagram text"):
        FloorDiagram.from_text(f"d=3; edges={edges}")
    with pytest.raises(DiagramError, match="cannot parse tree text"):
        LabeledTree.from_text(f"d=3; edges={tree}")
    with pytest.raises(DiagramError, match="malformed filter"):
        DiagramQuery(3, genus=0, filter=f"contains={edges}")


def test_validation_reports_the_first_error_in_order():
    # vertices 1 and 3 both have divergence 2: the smaller one is named
    with pytest.raises(DiagramError, match=r"^divergence 2 > 1 at vertex 1$"):
        diagram(4, [(1, 2, 2), (3, 4, 2)])
    # vertex 1 has divergence 2, but (2,4,1) leaving 1..3 is reported first
    with pytest.raises(DiagramError, match=r"^edge \(2,4,1\) must satisfy"):
        diagram(3, [(1, 2, 1), (1, 3, 1), (2, 4, 1)])


def test_partition_rejects_bad_input():
    with pytest.raises(DiagramError):
        Partition((1, 2))
    with pytest.raises(DiagramError):
        Partition((0,))
    with pytest.raises(DiagramError, match="cannot parse partition"):
        Partition.parse("2,x")


def test_classify_matches_the_per_component_formula():
    # the sum of component cogenera plus the products of component degrees
    # over unordered pairs, against classify's closed form d(d-1)/2 - |E|
    seen = 0
    for d in range(1, 7):
        for cogenus in range(d * (d - 1) // 2 + 1):
            for diag in enumerate_diagrams(DiagramQuery(d, cogenus=cogenus)):
                seen += 1
                comps = diag.component_vertex_sets()
                sizes = [len(vs) for vs in comps]
                genera = [
                    sum(1 for s, _, _ in diag.edges if s in vs) - len(vs) + 1 for vs in comps
                ]
                expected = sum((dj - 1) * (dj - 2) // 2 - gj for dj, gj in zip(sizes, genera))
                expected += sum(a * b for a, b in itertools.combinations(sizes, 2))
                shape = diag.classify()
                assert shape.cogenus == expected == cogenus, diag
                assert shape.components == len(comps)
                assert shape.connected == (len(comps) == 1)
                assert shape.genus == sum(genera)
    assert seen == 22239
