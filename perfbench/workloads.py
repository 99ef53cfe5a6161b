"""The benchmark's workloads: their inputs, their queries and their references.

Each workload has three parts:

- ``inputs(seed)`` runs in the benchmark process and makes the inputs the
  timed process receives (only ``genus0-trees`` depends on the seed);
- ``solve(api, inputs)`` runs in a fresh worker process and is the timed
  region: every query from the first to the last answer;
- ``expected(inputs)`` runs in the benchmark process after timing and
  gives the reference for every answer ``solve`` returns.

Answers are compared as strings, one reference per answer.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from math import factorial, prod
from pathlib import Path
from typing import Callable

FROZEN = Path(__file__).resolve().parent / "frozen_relative.json"

GW_DEGREE = 6
GW_GENERA = range(0, 7)
SEVERI_DEGREE = 6
SEVERI_DELTAS = range(0, 7)  # the rows of the frozen Severi table
RELATIVE_DEGREE = 5
RELATIVE_GENERA = (0,)
TREES_COUNT_DEGREE = 7  # count_connected(7, 0) = 7**5
TREES_ROUND_TRIP_DEGREE = 6
TROPICAL_DEGREE = 5
TROPICAL_CURVES = 150  # reconstructed per pass, whatever the seed
TROPICAL_MAX_SYMMETRY = 6
TROPICAL_MAX_MARKINGS = 300
NODEPOLY_DELTA = 4


def partitions(n: int, largest: int | None = None):
    """Partitions of n as weakly decreasing tuples, largest first."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in partitions(n - part, part):
            yield (part,) + rest


def relative_grid():
    """(g, lambda, rho) with |lambda| + |rho| = RELATIVE_DEGREE."""
    return [
        (g, lam, rho)
        for g in RELATIVE_GENERA
        for k in range(RELATIVE_DEGREE + 1)
        for lam in partitions(k)
        for rho in partitions(RELATIVE_DEGREE - k)
    ]


def relative_key(g, lam, rho) -> str:
    return f"relative_gw({RELATIVE_DEGREE},{g},{list(lam)},{list(rho)})"


def poly_text(poly) -> str:
    return ",".join(str(c) for c in poly.coefficients)


# -- gw-column ---------------------------------------------------------------


def gw_column_solve(api, inputs):
    return {f"gw({GW_DEGREE},{g})": api.gw(GW_DEGREE, g) for g in GW_GENERA}


def gw_column_expected(inputs):
    from floordiagrams import tables

    table = tables.gw_table()
    return {f"gw({GW_DEGREE},{g})": str(table[(GW_DEGREE, g)]) for g in GW_GENERA}


# -- shared-families ---------------------------------------------------------


def shared_families_solve(api, inputs):
    answers = {
        f"severi({SEVERI_DEGREE},{delta})": api.severi(SEVERI_DEGREE, delta)
        for delta in SEVERI_DELTAS
    }
    for g, lam, rho in relative_grid():
        answers[relative_key(g, lam, rho)] = api.relative_gw(
            RELATIVE_DEGREE, g, api.Partition(lam), api.Partition(rho)
        )
    return answers


def shared_families_expected(inputs):
    from floordiagrams import tables

    severi_table = tables.severi_table()
    gw_table = tables.gw_table()
    frozen = json.loads(FROZEN.read_text(encoding="utf-8"))
    expected = {}
    for delta in SEVERI_DELTAS:
        value = severi_table[(SEVERI_DEGREE, delta)]
        expected[f"severi({SEVERI_DEGREE},{delta})"] = str(value)
    for g, lam, rho in relative_grid():
        key = relative_key(g, lam, rho)
        if lam == () and rho == (1,) * RELATIVE_DEGREE:
            expected[key] = str(gw_table[(RELATIVE_DEGREE, g)])
        else:
            expected[key] = frozen[key]
    return expected


# -- genus0-trees ------------------------------------------------------------


def marking_symmetry(diag) -> int:
    """Order of the automorphism group of the diagram's ordinary markings.

    It permutes parallel equal-weight edges and the sinks of each floor.
    """
    order = prod(factorial(n) for n in Counter(diag.edges).values())
    return order * prod(factorial(1 - diag.divergence(v)) for v in range(1, diag.d + 1))


def genus0_trees_inputs(seed: int):
    """Seed-chosen genus-0 diagrams and how many of their markings to realize.

    list_markings minimizes over the automorphism group for every linear
    order, so its cost grows with the square of the group order and with
    the number of markings.  Diagrams above TROPICAL_MAX_SYMMETRY or
    TROPICAL_MAX_MARKINGS are left out and the last diagram is cut short,
    so that every seed realizes TROPICAL_CURVES curves at about the same
    cost.
    """
    from floordiagrams import DiagramQuery, count_markings, enumerate_diagrams

    family = [
        (diag.text(), count_markings(diag))
        for diag in enumerate_diagrams(DiagramQuery(TROPICAL_DEGREE, genus=0))
        if marking_symmetry(diag) <= TROPICAL_MAX_SYMMETRY
    ]
    family = [(text, nu) for text, nu in family if nu <= TROPICAL_MAX_MARKINGS]
    random.Random(seed).shuffle(family)
    sample, left = [], TROPICAL_CURVES
    for text, nu in family:
        sample.append((text, nu, min(nu, left)))
        left -= min(nu, left)
        if not left:
            break
    return {"sample": sample, "config_seed": seed}


def genus0_trees_solve(api, inputs):
    d = TREES_ROUND_TRIP_DEGREE
    answers = {
        f"count_connected({TREES_COUNT_DEGREE},0)": api.count_connected(
            TREES_COUNT_DEGREE, 0
        )
    }
    trees = set()
    for diag in api.enumerate_diagrams(api.DiagramQuery(d, genus=0)):
        tree = api.diagram_to_tree(diag)
        trees.add(tree.edges)
        answers[f"round_trip {diag.text()}"] = api.tree_to_diagram(tree).text()
    answers[f"distinct_trees({d})"] = len(trees)

    td = TROPICAL_DEGREE
    config = api.stretched_config(td, 0, inputs["config_seed"])
    no_tangency, ones = api.Partition(()), api.Partition.ones(td)
    for text, _, take in inputs["sample"]:
        diag = api.FloorDiagram.from_text(text)
        orders = api.list_markings(diag, no_tangency, ones)
        answers[f"listed {text}"] = len(orders)
        for i, order in enumerate(orders[:take]):
            sketch = api.reconstruct(diag, order, config)
            ok = api.verify_curve(sketch, td, 0).ok
            ok = api.sketch_svg(sketch).startswith("<svg") and ok
            answers[f"curve {text} #{i}"] = "ok" if ok else "failed"
    return answers


def genus0_trees_expected(inputs):
    from floordiagrams import DiagramQuery, enumerate_diagrams

    d = TREES_ROUND_TRIP_DEGREE
    expected = {
        f"count_connected({TREES_COUNT_DEGREE},0)": str(
            TREES_COUNT_DEGREE ** (TREES_COUNT_DEGREE - 2)
        )
    }
    for diag in enumerate_diagrams(DiagramQuery(d, genus=0)):
        expected[f"round_trip {diag.text()}"] = diag.text()
    expected[f"distinct_trees({d})"] = str(d ** (d - 2))
    for text, nu, take in inputs["sample"]:
        expected[f"listed {text}"] = str(nu)
        for i in range(take):
            expected[f"curve {text} #{i}"] = "ok"
    return expected


# -- nodepoly ----------------------------------------------------------------


def nodepoly_solve(api, inputs):
    polys = api.aj_polynomials(NODEPOLY_DELTA)
    return {f"A_{j}": poly_text(p) for j, p in enumerate(polys, start=1)}


def nodepoly_expected(inputs):
    from floordiagrams import RatPolynomial, tables

    rows = tables.aj_reference(NODEPOLY_DELTA)
    return {
        f"A_{j}": poly_text(RatPolynomial(row)) for j, row in enumerate(rows, start=1)
    }


@dataclass(frozen=True)
class Workload:
    solve: Callable
    expected: Callable
    inputs: Callable = lambda seed: {}


WORKLOADS = {
    "gw-column": Workload(gw_column_solve, gw_column_expected),
    "shared-families": Workload(shared_families_solve, shared_families_expected),
    "genus0-trees": Workload(genus0_trees_solve, genus0_trees_expected, genus0_trees_inputs),
    "nodepoly": Workload(nodepoly_solve, nodepoly_expected),
}
