"""Labeled floor diagrams: weighted acyclic multigraphs on ordered vertices.

A diagram of degree d lives on the vertex set {1, ..., d}.  Every edge is
directed from a smaller vertex to a larger one and carries a positive
integer weight, and the divergence (outgoing minus incoming weight) at
every vertex is at most 1.  All quantities are exact integers.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from math import prod
from operator import attrgetter, index

Edge = tuple[int, int, int]  # (src, tgt, weight)


class DiagramError(ValueError):
    """A partition or diagram violates a structural invariant."""


def as_int(value, what: str) -> int:
    """``value`` as an int through ``operator.index``: a bool, a float or a string is refused."""
    if isinstance(value, bool):
        raise DiagramError(f"{what} must be an integer, got {value!r}")
    try:
        return index(value)
    except TypeError as exc:
        raise DiagramError(f"{what} must be an integer, got {value!r}") from exc


def trim(vec) -> tuple:
    """``vec`` as a tuple without its trailing zeros."""
    vec = list(vec)
    while vec and not vec[-1]:
        vec.pop()
    return tuple(vec)


class Value:
    """Immutable record whose fields are its class's ``__slots__``, in order.

    Instances of one class are equal when their fields are, and never equal
    an instance of another class; the hash is the hash of the field tuple,
    the repr is ``Name(field=value, ...)`` and any assignment raises
    AttributeError, as with a frozen dataclass.  Plain slotted classes keep
    ``dataclasses`` out of the package import: it loads ``inspect`` and
    ``ast`` and executes generated code for every class, which cost more than
    most solves.

    The shared ``__init__`` stores its positional and then its keyword
    arguments in slot order, and raises TypeError for a missing, extra,
    unknown or repeated field, as a dataclass does.  A class whose
    constructor canonicalizes, validates or has a default (``Partition``,
    ``FloorDiagram``, ``DiagramQuery``, ``Template``, ``RatPolynomial``,
    ``LabeledTree``, ``StretchedConfig``, ``CurveCheck``) keeps its own
    ``__init__``, which stores its fields with ``object.__setattr__``.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        get = attrgetter(*cls.__slots__)
        # attrgetter gives a tuple only for two names or more
        astuple = get if len(cls.__slots__) > 1 else lambda obj: (get(obj),)
        cls._astuple = staticmethod(astuple)
        # slot descriptors store a field without the refusing __setattr__
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *args, **kwargs):
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = _bind(type(self), args, kwargs)
        for store, arg in zip(setters, args):
            store(self, arg)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple(self) == other._astuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, since assignment is refused
        return type(self), self._astuple(self)


def _bind(cls: type, args: tuple, kwargs: dict) -> list:
    """The fields of ``cls(*args, **kwargs)`` in slot order, or the
    TypeError a dataclass constructor raises for the same call."""
    names, call = cls.__slots__, f"{cls.__qualname__}()"
    if len(args) > len(names):
        raise TypeError(f"{call} takes {len(names)} arguments but {len(args)} were given")
    fields = dict(zip(names, args))
    for name, arg in kwargs.items():
        if name not in names:
            raise TypeError(f"{call} got an unexpected keyword argument {name!r}")
        if name in fields:
            raise TypeError(f"{call} got multiple values for argument {name!r}")
        fields[name] = arg
    missing = [name for name in names if name not in fields]
    if missing:
        raise TypeError(f"{call} missing arguments: {', '.join(missing)}")
    return [fields[name] for name in names]


class Partition(Value):
    """Weakly decreasing sequence of positive integers (tangency data)."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...] = ()):
        try:
            parts = tuple(map(index, parts))
        except TypeError as exc:
            raise DiagramError(f"partition parts must be integers, got {parts!r}") from exc
        object.__setattr__(self, "parts", parts)
        for i, p in enumerate(parts):
            if p < 1:
                raise DiagramError(f"partition parts must be positive, got {p}")
            if i and parts[i - 1] < p:
                raise DiagramError(f"partition parts must be weakly decreasing: {parts}")

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def count(self, value: int) -> int:
        """Number of parts equal to ``value`` (the exponent in <1^a 2^b ...>)."""
        return sum(1 for p in self.parts if p == value)

    @staticmethod
    def ones(n: int) -> "Partition":
        return Partition((1,) * as_int(n, "part count"))

    @staticmethod
    def parse(text: str) -> "Partition":
        """Parse a comma-separated part list; empty string is the empty partition."""
        text = text.strip()
        if not text:
            return Partition(())
        try:
            parts = tuple(int(t) for t in text.split(","))
        except ValueError as exc:
            raise DiagramError(f"cannot parse partition {text!r}") from exc
        return Partition(parts)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)


def components(
    vertices: Iterable[int], edges: Iterable[Sequence[int]]
) -> list[tuple[int, ...]]:
    """Connected components of a graph as sorted vertex tuples, ordered by
    minimum vertex.  Each edge starts with its two endpoints, both of which
    must be among ``vertices``."""
    parent = {v: v for v in vertices}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edges:
        ra, rb = find(e[0]), find(e[1])
        if ra != rb:
            parent[rb] = ra
    groups: dict[int, list[int]] = {}
    for v in parent:
        groups.setdefault(find(v), []).append(v)
    return sorted((tuple(sorted(g)) for g in groups.values()), key=lambda g: g[0])


def parse_tuples(body: str, arity: int) -> list[tuple[int, ...]]:
    """Parse ``(a,b,...);(a,b,...)`` into integer tuples of the given arity.

    An empty body is the empty list; a malformed one, including a part that
    is not one parenthesised tuple, raises ValueError.
    """
    out = []
    for part in body.split(";") if body.strip() else ():
        part = part.strip()
        if not (part.startswith("(") and part.endswith(")")):
            raise ValueError(f"expected one (...) in {part!r}")
        fields = part[1:-1].split(",")
        if len(fields) != arity:
            raise ValueError(f"expected {arity} integers in {part!r}")
        out.append(tuple(int(f) for f in fields))
    return out


class DiagramShape(Value):
    __slots__ = ("components", "degree", "genus", "cogenus", "connected")


class FloorDiagram(Value):
    """Degree-d labeled floor diagram; edges stored as a sorted multiset."""

    __slots__ = ("d", "edges")

    def __init__(self, d: int, edges: tuple[Edge, ...] = ()):
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "edges", edges)
        self.__post_init__()

    def __post_init__(self):
        """Canonicalize and validate in one pass over the sorted edges, so
        the cost is O(E) whatever d is; a separate method so that it can be
        counted once per diagram built."""
        d = as_int(self.d, "degree")
        if d < 1:
            raise DiagramError(f"degree must be positive, got {d}")
        try:
            edges = tuple(sorted([(index(s), index(t), index(w)) for s, t, w in self.edges]))
        except TypeError as exc:
            raise DiagramError(
                f"edge entries must be integers, got {self.edges!r}"
            ) from exc
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "edges", edges)
        div: dict[int, int] = {}
        for s, t, w in edges:
            if not (1 <= s < t <= d):
                raise DiagramError(f"edge ({s},{t},{w}) must satisfy 1 <= src < tgt <= d")
            if w < 1:
                raise DiagramError(f"edge ({s},{t},{w}) must have positive weight")
            div[s] = div.get(s, 0) + w
            div[t] = div.get(t, 0) - w
        if max(div.values(), default=0) > 1:
            v = min(v for v, dv in div.items() if dv > 1)
            raise DiagramError(f"divergence {div[v]} > 1 at vertex {v}")

    def _edge_divergences(self) -> dict[int, int]:
        """Divergence of every vertex that has an edge, in one pass over the
        edges; every other vertex has divergence 0."""
        div: dict[int, int] = {}
        for s, t, w in self.edges:
            div[s] = div.get(s, 0) + w
            div[t] = div.get(t, 0) - w
        return div

    def divergences(self) -> list[int]:
        """Divergence of every vertex 1..d."""
        div = self._edge_divergences()
        return [div.get(v, 0) for v in range(1, self.d + 1)]

    def divergence(self, v: int) -> int:
        """Outgoing minus incoming edge weight at vertex v."""
        if not 1 <= v <= self.d:
            raise DiagramError(f"vertex {v} out of range 1..{self.d}")
        return self._edge_divergences().get(v, 0)

    def multiplicity(self) -> int:
        """Product of squared edge weights (1 for an edgeless diagram)."""
        return prod(w * w for _, _, w in self.edges)

    def component_vertex_sets(self) -> list[tuple[int, ...]]:
        """Connected components as sorted vertex tuples, ordered by minimum vertex."""
        return components(range(1, self.d + 1), self.edges)

    def _component_count(self) -> int:
        """Components over the edge endpoints, plus one per vertex without
        an edge, so the cost is O(E) whatever d is."""
        ends = {v for s, t, _ in self.edges for v in (s, t)}
        return len(components(ends, self.edges)) + self.d - len(ends)

    @property
    def connected(self) -> bool:
        return self._component_count() == 1

    def genus(self) -> int:
        """First Betti number: edges - vertices + components."""
        return len(self.edges) - self.d + self._component_count()

    def classify(self) -> DiagramShape:
        """Component count, degree, genus and cogenus of the diagram.

        Summing the component cogenera (d_j-1)(d_j-2)/2 - g_j and the products
        of component degrees over unordered pairs leaves d(d-1)/2 - |E|,
        whether the diagram is connected or not.
        """
        comps = self._component_count()
        return DiagramShape(
            components=comps,
            degree=self.d,
            genus=len(self.edges) - self.d + comps,
            cogenus=self.d * (self.d - 1) // 2 - len(self.edges),
            connected=comps == 1,
        )

    # -- canonical text / JSON forms ------------------------------------

    def text(self) -> str:
        body = ";".join(["(%d,%d,%d)" % e for e in self.edges])
        return f"d={self.d}; edges={body}"

    def to_json(self) -> str:
        import json  # here, so that importing the package leaves json unloaded

        return json.dumps({"d": self.d, "edges": [list(e) for e in self.edges]})

    @staticmethod
    def from_text(text: str) -> "FloorDiagram":
        try:
            head, body = text.split(";", 1)
            d = int(head.strip().removeprefix("d="))
            edges = parse_tuples(body.strip().removeprefix("edges="), 3)
        except ValueError as exc:
            raise DiagramError(f"cannot parse diagram text {text!r}") from exc
        return FloorDiagram(d, tuple(edges))

    @staticmethod
    def from_json(text: str) -> "FloorDiagram":
        import json

        try:
            obj = json.loads(text)
            return FloorDiagram(obj["d"], tuple(tuple(e) for e in obj["edges"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise DiagramError(f"cannot parse diagram json {text!r}") from exc

    def __str__(self) -> str:
        return self.text()


def diagram(d: int, edges: Iterable[Sequence[int]] = ()) -> FloorDiagram:
    """Convenience constructor from any iterable of (src, tgt, weight)."""
    return FloorDiagram(d, tuple(tuple(e) for e in edges))
