"""The constructor that ``core.Value`` gives every store-only record.

It binds positional and then keyword arguments to the slots and refuses a
bad call with TypeError, as a dataclass does; keyword rebuilds
(``oracles.copy_with``) and pickling go through it for every record that
has no ``__init__`` of its own.  An AST scan keeps such ``__init__``s from
coming back.
"""

import ast
import pickle
from pathlib import Path

import pytest

import floordiagrams
from floordiagrams.core import DiagramShape, Partition, Value, diagram
from floordiagrams.markings import enumerate_distributions
from floordiagrams.oracles import build_poset, copy_with
from floordiagrams.sequences import closed_counts
from floordiagrams.tropical import reconstruct, stretched_config, verify_curve

DIAG = diagram(3, [(1, 2, 1), (2, 3, 1)])
SKETCH = reconstruct(
    DIAG,
    ("v1", "e1-2w1#0", "v2", "e2-3w1#0", "v3", "s2w1#0", "s3w1#0", "s3w1#1"),
    stretched_config(3, 0, 0),
)
DIST = next(enumerate_distributions(DIAG, Partition(()), Partition.ones(3)))

RECORDS = [
    DIAG.classify(),
    DIST,
    build_poset(DIAG, DIST, Partition(())),
    closed_counts(3),
    SKETCH.floors[0],
    SKETCH.elevators[0],
    SKETCH,
    verify_curve(SKETCH, 3, 0),
]


def test_positional_keyword_and_mixed_calls_build_equal_records():
    shape = DiagramShape(1, 3, 0, 1, True)
    assert shape == DIAG.classify()
    assert shape == DiagramShape(components=1, degree=3, genus=0, cogenus=1, connected=True)
    assert shape == DiagramShape(1, 3, connected=True, cogenus=1, genus=0)
    assert repr(shape) == (
        "DiagramShape(components=1, degree=3, genus=0, cogenus=1, connected=True)"
    )


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((1, 3, 0, 1), {}, "missing arguments: connected"),
        ((1, 3), {"genus": 0}, "missing arguments: cogenus, connected"),
        ((1, 3, 0, 1, True, 0), {}, "takes 5 arguments but 6 were given"),
        (
            (1, 3, 0, 1),
            {"connected": True, "edges": ()},
            "got an unexpected keyword argument 'edges'",
        ),
        ((1, 3, 0, 1, True), {"components": 1}, "got multiple values for argument 'components'"),
    ],
    ids=["missing", "missing-two", "extra", "unknown", "duplicated"],
)
def test_bad_calls_raise_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match=f"^DiagramShape\\(\\) {message}$"):
        DiagramShape(*args, **kwargs)


@pytest.mark.parametrize("record", RECORDS, ids=[type(r).__name__ for r in RECORDS])
def test_keyword_rebuild_and_pickle_round_trip(record):
    assert type(record).__init__ is Value.__init__
    assert copy_with(record) == record
    first, *rest = type(record).__slots__
    changed = copy_with(record, **{first: "changed"})
    assert getattr(changed, first) == "changed"
    assert all(getattr(changed, name) == getattr(record, name) for name in rest)
    copied = pickle.loads(pickle.dumps(record))
    assert type(copied) is type(record) and copied == record


def store_only_inits(source: str) -> list[str]:
    """The ``Value`` subclasses in ``source`` whose ``__init__`` takes no
    default and only stores its parameters, unchanged, with
    ``object.__setattr__``: the shared constructor already does that."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        if not any(isinstance(base, ast.Name) and base.id == "Value" for base in cls.bases):
            continue
        for init in cls.body:
            if not (isinstance(init, ast.FunctionDef) and init.name == "__init__"):
                continue
            args = init.args
            params = {arg.arg for arg in args.args[1:] + args.kwonlyargs}
            if args.defaults or any(args.kw_defaults) or args.vararg or args.kwarg:
                continue
            body = init.body[1:] if ast.get_docstring(init) else init.body
            if body and all(_stores_a_parameter(stmt, params) for stmt in body):
                found.append(cls.name)
    return found


def _stores_a_parameter(stmt: ast.stmt, params: set[str]) -> bool:
    """Whether ``stmt`` is ``object.__setattr__(self, "name", param)``."""
    call = stmt.value if isinstance(stmt, ast.Expr) else None
    return (
        isinstance(call, ast.Call)
        and ast.unparse(call.func) == "object.__setattr__"
        and len(call.args) == 3
        and isinstance(call.args[1], ast.Constant)
        and isinstance(call.args[2], ast.Name)
        and call.args[2].id in params
    )


def test_the_scan_finds_a_store_only_init():
    source = '''
class Kept(Value):
    __slots__ = ("name", "detail")

    def __init__(self, name, detail=""):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "detail", detail)


class Checked(Value):
    __slots__ = ("d",)

    def __init__(self, d):
        object.__setattr__(self, "d", index(d))


class Stored(Value):
    __slots__ = ("d", "edges")

    def __init__(self, d: int, edges: tuple):
        """Store."""
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "edges", edges)
'''
    assert store_only_inits(source) == ["Stored"]


def test_no_record_restates_the_shared_constructor():
    package = Path(floordiagrams.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name != "oracles.py":
            assert store_only_inits(path.read_text()) == [], path.name



def test_every_own_constructor_stores_through_the_shared_one():
    # Value.__init__ stores through the slot descriptors, so no field name is
    # spelled twice; each class with its own __init__ calls it exactly once
    package = Path(floordiagrams.__file__).parent
    stores = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        calls = [ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)]
        assert "object.__setattr__" not in calls, path.name
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name != "Value" and any(
                isinstance(item, ast.FunctionDef) and item.name == "__init__" for item in cls.body
            ):
                stores[cls.name] = sum(
                    isinstance(node, ast.Call) and ast.unparse(node.func) == "Value.__init__"
                    for node in ast.walk(cls)
                )
    own = ["Partition", "FloorDiagram", "DiagramQuery", "RatPolynomial", "Template",
           "LabeledTree", "StretchedConfig", "CurveCheck"]
    assert stores == dict.fromkeys(own, 1)
