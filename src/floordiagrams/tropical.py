"""Reconstruction of plane tropical curves from marked floor diagrams.

Given a vertically stretched configuration and a marking, each floor is a
piecewise-linear graph rebuilt by a right-to-left scan (slope 1 at the
right end, changing by the elevator weight at every black point, slope 0
at the left end), anchored through its white point; elevators are the
vertical segments and rays through the black points.

Every elevator stands at a point's x coordinate and every slope is an
integer, so each coordinate lies on the lattice (1/L)Z, where L is the lcm
of the points' denominators.  ``reconstruct`` walks the floors in integers
scaled by L and makes the sketch's Fraction fields only at the end, reusing
the configuration's own points; ``verify_curve`` compares integer slopes as
ints, checks every floor's heights against its slopes in the integers of
``as_integer_ratio()`` and checks that every black point stands on its
elevator.  Arithmetic stays exact throughout, so every verification check is
an equality check.  The SVG sketch keeps it exact too: it writes every
coordinate over one common denominator and rounds only the final integer
quotient.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .core import DiagramError, FloorDiagram, Value, as_int, components
from .markings import Distribution, element_labels


class StretchedConfig(Value):
    """Points ascending in both coordinates, with vertical gaps dominating
    horizontal spread by the factor d^3 + d."""

    __slots__ = ("d", "g", "points")

    def __init__(self, d: int, g: int, points: tuple[tuple[Fraction, Fraction], ...]):
        pts = tuple((Fraction(x), Fraction(y)) for x, y in points)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "points", pts)
        if len(pts) != 3 * d - 1 + g:
            raise DiagramError(f"a ({d},{g})-configuration needs {3 * d - 1 + g} points")
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        if any(a >= b for a, b in zip(xs, xs[1:])):
            raise DiagramError("x coordinates must increase strictly")
        if any(a >= b for a, b in zip(ys, ys[1:])):
            raise DiagramError("y coordinates must increase strictly")
        if len(pts) > 1:
            min_dy = min(b - a for a, b in zip(ys, ys[1:]))
            max_dx = xs[-1] - xs[0]
            factor = d**3 + d
            if not min_dy > factor * max_dx:
                raise DiagramError("configuration is not vertically stretched")


def _lcg(seed: int):
    state = (seed * 6364136223846793005 + 1442695040888963407) % 2**64
    while True:
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        yield state >> 33


def stretched_config(d: int, g: int, seed: int = 0) -> StretchedConfig:
    """Deterministic vertically stretched (d, g)-configuration."""
    d, g, seed = as_int(d, "degree"), as_int(g, "genus"), as_int(seed, "seed")
    if d < 1 or g < 0:
        raise DiagramError(f"need d >= 1 and g >= 0, got d={d}, g={g}")
    n = 3 * d - 1 + g
    rng = _lcg(seed)
    gap = (d**3 + d) * (n + 2) + 1
    points = []
    for i in range(1, n + 1):
        jx = Fraction(next(rng) % 1000, 2000)
        jy = Fraction(next(rng) % 1000, 2000)
        points.append((i + jx, i * gap + jy))
    return StretchedConfig(d, g, tuple(points))


class FloorCurve(Value):
    """Graph of one floor: breakpoints left to right and the slope sequence
    (one more slope than breakpoints; 0 at the far left, 1 at the far right)."""

    __slots__ = ("vertex", "anchor", "breakpoints", "slopes")

    def height(self, x: Fraction) -> Fraction:
        if not self.breakpoints:
            return self.anchor[1] + self.slopes[0] * (x - self.anchor[0])
        for i, (bx, by) in enumerate(self.breakpoints):
            if x <= bx:
                return by + self.slopes[i] * (x - bx)
        bx, by = self.breakpoints[-1]
        return by + self.slopes[-1] * (x - bx)


class Elevator(Value):
    # lower_floor and bottom are None for a ground elevator
    __slots__ = (
        "label", "x", "weight", "upper_floor", "lower_floor", "top", "bottom", "point"
    )


class TropicalCurveSketch(Value):
    __slots__ = ("d", "g", "floors", "elevators", "marking")


class CurveCheck(Value):
    __slots__ = ("name", "ok", "detail")

    def __init__(self, name: str, ok: bool, detail: str = ""):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "detail", detail)


class CurveReport(Value):
    __slots__ = ("checks",)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[CurveCheck]:
        return [c for c in self.checks if not c.ok]


@lru_cache(maxsize=64)
def _ordinary_labels(diag: FloorDiagram) -> dict[str, tuple]:
    """Element id of every label of the diagram's ordinary markings, whose
    one distribution hangs 1 - divergence weight-1 sinks from each floor.

    A gallery draws every marking of one diagram in turn, so the map is
    built once per diagram; callers only read it."""
    ordinary = Distribution((), tuple((1,) * (1 - dv) for dv in diag.divergences()))
    return {label: e for e, label in element_labels(diag, ordinary).items()}


# the Fraction of an integer slope, one per value, shared by every floor
_whole = lru_cache(maxsize=64)(Fraction)


def canonical_marking(diag: FloorDiagram, order: tuple[str, ...]) -> tuple[str, ...]:
    """Relabel interchangeable copies in order of appearance."""
    counters: dict[tuple, int] = {}
    out = []
    for label in order:
        base, _, _ = label.partition("#")
        if "#" in label:
            idx = counters.get(base, 0)
            counters[base] = idx + 1
            out.append(f"{base}#{idx}")
        else:
            out.append(label)
    return tuple(out)


def _validated(
    diag: FloorDiagram, order: tuple[str, ...], kinds: dict[str, tuple]
) -> tuple[str, ...]:
    """Check the order is a constrained linear extension of the poset whose
    element ids ``kinds`` maps labels to; return it canonicalized."""
    order = canonical_marking(diag, tuple(order))
    if set(order) != set(kinds) or len(order) != len(kinds):
        raise DiagramError(
            f"marking must be a permutation of {sorted(kinds)}, got {list(order)}"
        )
    pos = {label: i for i, label in enumerate(order)}
    for label in order:
        kind = kinds[label]
        if kind[0] == "M":
            _, s, t, _, _ = kind
            if not pos[f"v{s}"] < pos[label] < pos[f"v{t}"]:
                raise DiagramError(f"midpoint {label} must sit between floors {s} and {t}")
        elif kind[0] == "S":
            _, v, _, _ = kind
            if pos[label] < pos[f"v{v}"]:
                raise DiagramError(f"sink {label} must come after floor {v}")
    for v in range(1, diag.d):
        if pos[f"v{v}"] > pos[f"v{v+1}"]:
            raise DiagramError("floors must appear in increasing order")
    return order


def reconstruct(
    diag: FloorDiagram, order: tuple[str, ...], config: StretchedConfig
) -> TropicalCurveSketch:
    """Build the unique tropical curve through the configuration realizing
    the given marking (highest point corresponds to the smallest element)."""
    genus = diag.genus()
    if (config.d, config.g) != (diag.d, genus):
        raise DiagramError(
            f"configuration is for (d,g)=({config.d},{config.g}), "
            f"diagram has ({diag.d},{genus})"
        )
    kinds = _ordinary_labels(diag)
    order = _validated(diag, order, kinds)
    n = len(order)
    pos = {label: i for i, label in enumerate(order)}
    point_of = {label: config.points[n - 1 - i] for label, i in pos.items()}
    # a floor starts at a point and moves by integer slopes times differences
    # of the points' x, so every height lies on the points' lattice (1/scale)Z
    scale = lcm(*{q.denominator for point in config.points for q in point})
    lattice_of = {
        label: (x.numerator * (scale // x.denominator), y.numerator * (scale // y.denominator))
        for label, (x, y) in point_of.items()
    }

    # black neighbors per floor: (position, label, signed weight); sign +w for
    # an elevator from above (incoming edge), -w from below (outgoing or sink)
    neighbors: dict[int, list[tuple[int, str, int]]] = {v: [] for v in range(1, diag.d + 1)}
    for label, kind in kinds.items():
        if kind[0] == "M":
            _, s, t, w, _ = kind
            neighbors[t].append((pos[label], label, +w))
            neighbors[s].append((pos[label], label, -w))
        elif kind[0] == "S":
            _, v, w, _ = kind
            neighbors[v].append((pos[label], label, -w))

    floors: list[FloorCurve] = []
    # (floor, label) -> the breakpoint's y, scaled to an integer and as a Fraction
    height_at: dict[tuple[int, str], tuple[int, Fraction]] = {}
    for v in range(1, diag.d + 1):
        nbrs = sorted(neighbors[v])  # ascending position = right to left
        slope = 1
        slopes = []  # the slope left of each breakpoint, right to left
        for _, _, signed in nbrs:
            slope += signed
            slopes.append(slope)
        if slope != 0:
            raise AssertionError(f"floor {v} does not end with slope 0")
        labels = [label for _, label, _ in reversed(nbrs)]
        slopes = slopes[::-1] + [1]
        breaks_x = [lattice_of[label][0] for label in labels]
        ax, ay = lattice_of[f"v{v}"]
        region = sum(1 for x in breaks_x if x < ax)
        ys = [0] * len(breaks_x)
        y = ay
        x_cur = ax
        for i in range(region - 1, -1, -1):  # walk left from the anchor
            y += slopes[i + 1] * (breaks_x[i] - x_cur)
            x_cur = breaks_x[i]
            ys[i] = y
        y = ay
        x_cur = ax
        for i in range(region, len(breaks_x)):  # walk right
            y += slopes[i] * (breaks_x[i] - x_cur)
            x_cur = breaks_x[i]
            ys[i] = y
        heights = [Fraction(y, scale) for y in ys]
        for label, y, height in zip(labels, ys, heights):
            height_at[(v, label)] = (y, height)
        floors.append(
            FloorCurve(
                v,
                point_of[f"v{v}"],
                tuple((point_of[label][0], h) for label, h in zip(labels, heights)),
                tuple(map(_whole, slopes)),
            )
        )

    # each black point is a breakpoint of the floors its elevator meets, so
    # the walk above already has the elevator's ends
    elevators = []
    for label in order:
        kind = kinds[label]
        point, y = point_of[label], lattice_of[label][1]
        if kind[0] == "M":
            _, s, t, w, _ = kind
            top_y, top = height_at[(s, label)]
            bottom_y, bottom = height_at[(t, label)]
            if not bottom_y < y < top_y:
                raise AssertionError(
                    f"black point of {label} must lie on its elevator"
                )
            elevators.append(Elevator(label, point[0], w, s, t, top, bottom, point))
        elif kind[0] == "S":
            _, v, w, _ = kind
            top_y, top = height_at[(v, label)]
            if not y < top_y:
                raise AssertionError(
                    f"black point of {label} must lie below floor {v}"
                )
            elevators.append(Elevator(label, point[0], w, v, None, top, None, point))
    return TropicalCurveSketch(diag.d, genus, tuple(floors), tuple(elevators), order)


def _check_polyline(floor: FloorCurve, slopes: list, checks: list[CurveCheck]) -> None:
    """Append a failed check for each segment between breakpoints that does
    not rise by its slope times its run, and one if the anchor is off the
    floor's polyline.  Each test is cross-multiplied in the integers of
    ``as_integer_ratio()``."""
    if not floor.breakpoints:
        return  # the floor is the line through its anchor
    ax, ay = floor.anchor
    axn, axd = ax.as_integer_ratio()
    # the anchor is read on the segment left of the first breakpoint at or
    # right of it, as FloorCurve.height reads it, else right of the last one
    anchor_at = None
    for i, (bx, by) in enumerate(floor.breakpoints):
        xn, xd = bx.as_integer_ratio()
        yn, yd = by.as_integer_ratio()
        # (y - py) / (x - px) == slope, both sides over the four denominators
        if i and (yn * pyd - pyn * yd) * pxd * xd != slopes[i] * (xn * pxd - pxn * xd) * pyd * yd:
            px, py = floor.breakpoints[i - 1]
            checks.append(
                CurveCheck(
                    f"floor {floor.vertex} segment to x={bx}",
                    False,
                    f"({px}, {py}) to ({bx}, {by}) off slope {slopes[i]}",
                )
            )
        if anchor_at is None and axn * xd <= xn * axd:
            anchor_at = (xn, xd, yn, yd, slopes[i])
        pxn, pxd, pyn, pyd = xn, xd, yn, yd
    xn, xd, yn, yd, slope = anchor_at or (xn, xd, yn, yd, slopes[-1])
    ayn, ayd = ay.as_integer_ratio()
    if (ayn * yd - yn * ayd) * xd * axd != slope * (axn * xd - xn * axd) * yd * ayd:
        checks.append(
            CurveCheck(f"floor {floor.vertex} anchor", False, f"({ax}, {ay}) off the floor")
        )


def verify_curve(sketch: TropicalCurveSketch, d: int, g: int) -> CurveReport:
    """Balancing, endpoint slopes, unbounded-direction census, degree, genus,
    a failed check for each floor segment or anchor off the floor's slopes,
    one for each elevator end off the height of a floor it meets, and one
    for each black point off its elevator.  Elevator ends are read only on
    floors that pass their segment and anchor checks, since the height of
    any other floor is not defined.

    Integer-valued slopes are compared as ints; any other slope keeps its
    exact Fraction arithmetic."""
    checks: list[CurveCheck] = []
    floor_slopes = [
        [s.numerator if s.denominator == 1 else s for s in floor.slopes]
        for floor in sketch.floors
    ]
    straight = []  # whether each floor passed its segment and anchor checks
    for floor, slopes in zip(sketch.floors, floor_slopes):
        ok = slopes[0] == 0 and slopes[-1] == 1
        checks.append(
            CurveCheck(
                f"floor {floor.vertex} end slopes",
                ok,
                f"left {slopes[0]}, right {slopes[-1]}",
            )
        )
        bound_ok = all(abs(s) <= d for s in slopes)
        checks.append(CurveCheck(f"floor {floor.vertex} slope bound", bound_ok))
        before = len(checks)
        _check_polyline(floor, slopes, checks)
        straight.append(len(checks) == before)
    # keyed by the exact ratio, which hashes faster than a Fraction
    at_x: dict[tuple[int, int], list[Elevator]] = {}
    for e in sketch.elevators:
        at_x.setdefault(e.x.as_integer_ratio(), []).append(e)
    for floor, slopes, read_ends in zip(sketch.floors, floor_slopes, straight):
        for i, (bx, by) in enumerate(floor.breakpoints):
            s_left, s_right = slopes[i], slopes[i + 1]
            hit = [
                e
                for e in at_x.get(bx.as_integer_ratio(), ())
                if floor.vertex in (e.upper_floor, e.lower_floor)
            ]
            if len(hit) != 1:
                checks.append(
                    CurveCheck(
                        f"floor {floor.vertex} breakpoint at x={bx}",
                        False,
                        f"{len(hit)} elevators meet it",
                    )
                )
                continue
            e = hit[0]
            vertical = e.weight if e.lower_floor == floor.vertex else -e.weight
            balanced = (s_right - s_left + vertical) == 0
            checks.append(
                CurveCheck(
                    f"balancing at floor {floor.vertex}, x={bx}",
                    balanced,
                    f"slopes {s_left}->{s_right}, elevator {e.label} ({vertical:+})",
                )
            )
            end = e.top if e.upper_floor == floor.vertex else e.bottom
            # reconstruct gives an elevator end and its breakpoint one shared
            # Fraction, so identity settles the comparison without arithmetic
            if read_ends and end is not by and end != by:
                checks.append(
                    CurveCheck(
                        f"elevator {e.label} end at floor {floor.vertex}",
                        False,
                        f"y={end}, floor at y={by}",
                    )
                )
    left_rays = sum(1 for slopes in floor_slopes if slopes[0] == 0)
    right_rays = sum(1 for slopes in floor_slopes if slopes[-1] == 1)
    floors = len(sketch.floors)
    ground_weight = sum(e.weight for e in sketch.elevators if e.lower_floor is None)
    checks.append(
        CurveCheck("census (-1,0)", left_rays == d, f"{left_rays} of {d}")
    )
    checks.append(
        CurveCheck("census (1,1)", right_rays == d, f"{right_rays} of {d}")
    )
    checks.append(
        CurveCheck("census (0,-1)", ground_weight == d, f"weight {ground_weight} of {d}")
    )
    checks.append(CurveCheck("degree", floors == d, f"{floors}"))
    bounded = [e for e in sketch.elevators if e.lower_floor is not None]
    comps = len(
        components(
            (f.vertex for f in sketch.floors),
            ((e.upper_floor, e.lower_floor) for e in bounded),
        )
    )
    betti = len(bounded) - floors + comps
    checks.append(CurveCheck("genus", betti == g, f"betti {betti} of {g}"))
    for e in sketch.elevators:
        px, py = e.point
        if px != e.x or py >= e.top or (e.bottom is not None and py <= e.bottom):
            checks.append(
                CurveCheck(
                    f"elevator {e.label} point",
                    False,
                    f"({px}, {py}) off x={e.x}, y from {e.bottom} to {e.top}",
                )
            )
    return CurveReport(tuple(checks))
