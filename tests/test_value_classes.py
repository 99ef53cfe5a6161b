"""The value-class contract: repr, hash, equality, immutability and copying,
and a package import that loads neither ``dataclasses``, ``inspect`` nor
``json``, nor, to load a table, ``typing`` or ``importlib.resources``."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from floordiagrams.core import Partition, Value, diagram
from floordiagrams.enumeration import DiagramQuery
from floordiagrams.nodepoly import RatPolynomial, Template
from floordiagrams.sequences import LabeledTree
from floordiagrams.tropical import reconstruct, stretched_config, verify_curve

SKETCH = reconstruct(diagram(1, []), ("v1", "s1w1#0"), stretched_config(1, 0, 0))

# (instance, field names in order, repr taken from the frozen dataclasses)
CASES = [
    (
        diagram(4, [(1, 2, 1), (2, 3, 1), (2, 3, 1), (3, 4, 2)]),
        ("d", "edges"),
        "FloorDiagram(d=4, edges=((1, 2, 1), (2, 3, 1), (2, 3, 1), (3, 4, 2)))",
    ),
    (Partition((3, 1, 1)), ("parts",), "Partition(parts=(3, 1, 1))"),
    (
        DiagramQuery(4, genus=1),
        ("d", "genus", "cogenus", "connected", "filter"),
        "DiagramQuery(d=4, genus=1, cogenus=None, connected=None, filter=None)",
    ),
    (
        RatPolynomial((Fraction(1, 2), 0, 3)),
        ("coefficients",),
        "RatPolynomial(coefficients=(Fraction(1, 2), Fraction(0, 1), Fraction(3, 1)))",
    ),
    (
        Template(((0, 2, 1), (1, 3, 2))),
        ("edges",),
        "Template(edges=((0, 2, 1), (1, 3, 2)))",
    ),
    (
        LabeledTree(3, frozenset({(1, 2), (2, 3)})),
        ("d", "edges"),
        "LabeledTree(d=3, edges=frozenset({(2, 3), (1, 2)}))",
    ),
    (
        stretched_config(1, 0, 0),
        ("d", "g", "points"),
        "StretchedConfig(d=1, g=0, points=((Fraction(303, 250), Fraction(18937, 2000)), "
        "(Fraction(1059, 500), Fraction(289, 16))))",
    ),
    (
        SKETCH,
        ("d", "g", "floors", "elevators", "marking"),
        "TropicalCurveSketch(d=1, g=0, floors=(FloorCurve(vertex=1, "
        "anchor=(Fraction(1059, 500), Fraction(289, 16)), "
        "breakpoints=((Fraction(303, 250), Fraction(34313, 2000)),), "
        "slopes=(Fraction(0, 1), Fraction(1, 1))),), "
        "elevators=(Elevator(label='s1w1#0', x=Fraction(303, 250), weight=1, "
        "upper_floor=1, lower_floor=None, top=Fraction(34313, 2000), bottom=None, "
        "point=(Fraction(303, 250), Fraction(18937, 2000))),), marking=('v1', 's1w1#0'))",
    ),
    (
        verify_curve(SKETCH, 1, 0),
        ("checks",),
        "CurveReport(checks=("
        "CurveCheck(name='floor 1 end slopes', ok=True, detail='left 0, right 1'), "
        "CurveCheck(name='floor 1 slope bound', ok=True, detail=''), "
        "CurveCheck(name='balancing at floor 1, x=303/250', ok=True, "
        "detail='slopes 0->1, elevator s1w1#0 (-1)'), "
        "CurveCheck(name='census (-1,0)', ok=True, detail='1 of 1'), "
        "CurveCheck(name='census (1,1)', ok=True, detail='1 of 1'), "
        "CurveCheck(name='census (0,-1)', ok=True, detail='weight 1 of 1'), "
        "CurveCheck(name='degree', ok=True, detail='1'), "
        "CurveCheck(name='genus', ok=True, detail='betti 0 of 0')))",
    ),
]


@pytest.mark.parametrize(
    "value, names, text", CASES, ids=[type(case[0]).__name__ for case in CASES]
)
def test_value_class_contract(value, names, text):
    fields = tuple(getattr(value, name) for name in names)
    assert repr(value) == text
    assert hash(value) == hash(fields)
    with pytest.raises(AttributeError):
        setattr(value, names[0], fields[0])
    with pytest.raises(AttributeError):
        delattr(value, names[0])

    twin_class = type("Twin", (Value,), {"__slots__": names})
    twin = object.__new__(twin_class)
    for name, field in zip(names, fields):
        object.__setattr__(twin, name, field)
    assert hash(twin) == hash(value)
    assert value != twin and twin != value
    assert value != fields
    assert len({value, twin}) == 2

    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def loaded_in_a_cold_start(code: str, modules: set[str]) -> str:
    """Which of ``modules`` a fresh process has loaded after running ``code``."""
    # -S skips site, whose own imports could otherwise hide one of ours
    src = Path(__file__).resolve().parents[1] / "src"
    code = f"import sys\n{code}\nprint(sorted({modules!r} & set(sys.modules)))\n"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def test_import_loads_neither_dataclasses_nor_inspect():
    code = "import floordiagrams\nfrom floordiagrams import invariants, markings, render, tables"
    assert loaded_in_a_cold_start(code, {"dataclasses", "inspect"}) == "[]"


def test_table_load_needs_neither_typing_nor_importlib_resources():
    code = "import floordiagrams, floordiagrams.tables\nfloordiagrams.tables.gw_table()"
    assert loaded_in_a_cold_start(code, {"typing", "importlib.resources"}) == "[]"


def test_package_import_leaves_json_unloaded():
    # diagrams read and write JSON only when asked; the tables still load it
    assert loaded_in_a_cold_start("import floordiagrams", {"json"}) == "[]"
