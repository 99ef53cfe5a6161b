import itertools

import pytest

from floordiagrams import enumeration
from floordiagrams.core import DiagramError, FloorDiagram
from floordiagrams.enumeration import (
    DiagramQuery,
    _generate_edge_sets,
    all_diagrams,
    count_connected,
    count_filtered,
    enumerate_diagrams,
)


def prufer_tree(seq, d):
    """Independent tree construction from a Pruefer sequence."""
    degree = [1] * (d + 1)
    for v in seq:
        degree[v] += 1
    edges = []
    seq = list(seq)
    for v in seq:
        for leaf in range(1, d + 1):
            if degree[leaf] == 1:
                edges.append(tuple(sorted((leaf, v))))
                degree[leaf] -= 1
                degree[v] -= 1
                break
    last = [v for v in range(1, d + 1) if degree[v] == 1]
    edges.append(tuple(sorted(last)))
    return edges


def brute_force_genus0_count(d):
    """All (tree, weight assignment) pairs with divergence <= 1 everywhere."""
    if d == 1:
        return 1
    total = 0
    for seq in itertools.product(range(1, d + 1), repeat=d - 2):
        tree = prufer_tree(seq, d)
        for weights in itertools.product(range(1, d), repeat=d - 1):
            ok = True
            for v in range(1, d + 1):
                div = sum(
                    w if a == v else -w
                    for (a, b), w in zip(tree, weights)
                    if v in (a, b)
                )
                if div > 1:
                    ok = False
                    break
            if ok:
                total += 1
    return total


def test_enumerate_d3_genus0():
    found = list(enumerate_diagrams(DiagramQuery(3, genus=0)))
    assert len(found) == 3
    assert all(diag.classify().genus == 0 and diag.connected for diag in found)


def test_enumerate_d4_genus0_cayley():
    assert count_connected(4, 0) == 16


def test_enumerate_d1():
    found = list(enumerate_diagrams(DiagramQuery(1, genus=0)))
    assert found == [FloorDiagram(1, ())]


@pytest.mark.parametrize("d,g,expect", [(3, 1, 1), (4, 1, 13), (4, 2, 5), (4, 3, 1)])
def test_connected_counts_match_published_values(d, g, expect):
    assert count_connected(d, g) == expect


def test_count_connected_5_0_against_brute_force():
    brute = brute_force_genus0_count(5)
    assert count_connected(5, 0) == brute == 125


def test_count_connected_4_1_against_independent_check():
    # every d=4 genus-1 edge multiset, by direct filtering of all 4-edge sets
    universe = [(s, t) for s in range(1, 4) for t in range(s + 1, 5)]
    found = set()
    for pairs in itertools.combinations_with_replacement(universe, 4):
        for weights in itertools.product(range(1, 4), repeat=4):
            edges = tuple(sorted((s, t, w) for (s, t), w in zip(pairs, weights)))
            try:
                diag = FloorDiagram(4, edges)
            except DiagramError:
                continue
            shape = diag.classify()
            if shape.connected and shape.genus == 1:
                found.add(edges)
    assert len(found) == count_connected(4, 1) == 13


def test_filtered_counts_odd():
    assert [count_filtered(d, 0, "odd") for d in range(1, 6)] == [1, 1, 2, 8, 46]


def test_filtered_counts_simple():
    assert [count_filtered(d, 0, "simple") for d in range(1, 6)] == [1, 1, 2, 7, 36]


def test_filtered_heavy_edge_is_factorial():
    assert count_filtered(5, 0, "has-weight=4") == 6  # (5-2)!


def test_chain_filter_count():
    # diagrams containing a -> a+1 -> a+2, weight 1: (b+1) d^(d-b-2)
    assert count_filtered(5, 0, "contains=(2,3,1);(3,4,1)") == 3 * 5


def test_max_weight_filter():
    assert count_filtered(4, 0, "max-weight=1") == count_filtered(4, 0, "simple")


def test_unknown_filter_rejected():
    with pytest.raises(DiagramError):
        count_filtered(3, 0, "bogus")


@pytest.mark.parametrize(
    "spec,message", [("bogus", "unknown"), ("max-weight=x", "malformed"), (5, "malformed")]
)
def test_query_checks_its_filter_when_built(spec, message):
    with pytest.raises(DiagramError, match=f"{message} filter {spec!r}"):
        DiagramQuery(3, genus=0, filter=spec)


def test_stream_is_sorted_unique_and_valid():
    seen = set()
    previous = None
    for diag in enumerate_diagrams(DiagramQuery(4, genus=1)):
        text = diag.text()
        assert text not in seen
        seen.add(text)
        if previous is not None:
            assert previous < text
        previous = text
        FloorDiagram.from_text(text)  # re-validate


def test_stream_is_deterministic():
    first = [d.text() for d in enumerate_diagrams(DiagramQuery(4, genus=0))]
    second = [d.text() for d in enumerate_diagrams(DiagramQuery(4, genus=0))]
    assert first == second


def test_degree_10_stream_is_in_text_order_and_builds_each_diagram_once(monkeypatch):
    # past degree 9 a number can take two digits, so "10" sorts before "2"
    built = []
    check = FloorDiagram.__post_init__
    monkeypatch.setattr(
        FloorDiagram, "__post_init__", lambda self, *args: built.append(check(self, *args))
    )
    texts = [diag.text() for diag in enumerate_diagrams(DiagramQuery(10, cogenus=43))]
    assert len(texts) == len(built) == 990
    assert texts[0] == "d=10; edges=(1,10,1);(2,10,1)"
    assert texts == sorted(texts)


@pytest.mark.parametrize("d", range(1, 7))
def test_sweep_alone_enforces_every_query(d):
    # oracle: classify every diagram of degree d, then group by shape
    universe = [
        FloorDiagram(d, edges)
        for n_edges in range(d * (d - 1) // 2 + 1)
        for edges in _generate_edge_sets(d, n_edges)
    ]
    shapes = [(diag.text(), diag.classify()) for diag in universe]
    deltas = range(d * (d - 1) // 2 + 2)
    queries = [DiagramQuery(d, cogenus=delta, connected=True) for delta in deltas]
    queries += [DiagramQuery(d, genus=g) for g in range((d - 1) * (d - 2) // 2 + 2)]
    queries += [DiagramQuery(d, cogenus=delta) for delta in deltas]
    for query in queries:
        if query.genus is not None:
            want = [t for t, s in shapes if s.connected and s.genus == query.genus]
        else:
            want = [
                t for t, s in shapes
                if s.cogenus == query.cogenus and (s.connected or not query.connected)
            ]
        assert [x.text() for x in enumerate_diagrams(query)] == sorted(want), query


def test_degree_7_counts_frozen():
    # past the d <= 6 reach of the sweep and Caporaso-Harris comparisons;
    # the values come from an earlier, independent generator that closed
    # open edges at their target floors
    assert [count_connected(7, g) for g in range(4)] == [16807, 57659, 108387, 143612]
    assert [len(_generate_edge_sets(7, n_edges)) for n_edges in range(10)] == [
        1, 21, 210, 1330, 5915, 19390, 47992, 91203, 135596, 160972,
    ]


def test_counting_sweep_equals_enumeration():
    grid = [(d, g) for d in range(1, 7) for g in range((d - 1) * (d - 2) // 2 + 1)]
    for d, g in grid + [(7, 0), (7, 1)]:
        assert count_connected(d, g) == len(all_diagrams(d, d + g - 1, True)), (d, g)


def test_counting_sweep_reaches_cayley_past_the_tables(monkeypatch):
    def refuse(*args):
        raise AssertionError("count_connected must not build edge sets")

    monkeypatch.setattr(enumeration, "all_diagrams", refuse)
    monkeypatch.setattr(enumeration, "_generate_edge_sets", refuse)
    for d in range(1, 10):
        assert count_connected(d, 0) == (1 if d == 1 else d ** (d - 2)), d


def test_cogenus_query_includes_disconnected():
    found = list(enumerate_diagrams(DiagramQuery(2, cogenus=1)))
    assert len(found) == 1
    assert not found[0].connected
    assert list(enumerate_diagrams(DiagramQuery(2, cogenus=1, connected=True))) == []


def test_cogenus_zero_is_the_smooth_diagram():
    found = list(enumerate_diagrams(DiagramQuery(4, cogenus=0)))
    assert len(found) == 1
    assert found[0].classify().genus == 3


def test_total_family_is_finite():
    total = sum(count_connected(4, g) for g in range(0, 8))
    assert total == 16 + 13 + 5 + 1


NON_INTEGER_CALLS = {
    "DiagramQuery(3, genus=0.5)": lambda: DiagramQuery(3, genus=0.5),
    "DiagramQuery(3, cogenus=0.5)": lambda: DiagramQuery(3, cogenus=0.5),
    "DiagramQuery('3', genus=0)": lambda: DiagramQuery("3", genus=0),
    "count_connected(3, 0.5)": lambda: count_connected(3, 0.5),
}


@pytest.mark.parametrize("call", NON_INTEGER_CALLS.values(), ids=NON_INTEGER_CALLS.keys())
def test_queries_reject_non_integer_arguments(call):
    with pytest.raises(DiagramError, match="must be an integer"):
        call()


@pytest.mark.parametrize("connected", [1, "yes"])
def test_query_refuses_a_non_bool_connected(connected):
    # truthy, but not True: such a query would stream disconnected diagrams
    with pytest.raises(DiagramError, match="connected must be None, True or False"):
        DiagramQuery(4, cogenus=3, connected=connected)


def test_query_validation():
    with pytest.raises(DiagramError):
        DiagramQuery(3)
    with pytest.raises(DiagramError):
        DiagramQuery(3, genus=0, cogenus=1)
    with pytest.raises(DiagramError):
        DiagramQuery(0, genus=0)
    with pytest.raises(DiagramError):
        DiagramQuery(3, genus=-1)
    with pytest.raises(DiagramError):
        DiagramQuery(3, genus=0, connected=False)
