"""Deterministic SVG emission for diagrams, markings and curve sketches.

Layout constants live in one place; output is byte-identical across runs
for the same input, so golden-file comparisons are meaningful.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from pathlib import Path

from .core import FloorDiagram
from .markings import checked_order, ordinary_labels
from .tropical import TropicalCurveSketch


UNIT = 80  # horizontal pitch between diagram vertices
RADIUS = 7  # vertex circle radius
DOT = 4  # marking point radius
MARGIN = 40
HEIGHT = 160
SKETCH_SIZE = 600
STROKE = "#222222"
ACCENT = "#aa2222"


def _fmt(value) -> str:
    return f"{float(value):.2f}"


def _svg(width: int, height: int, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _arc(x1: float, y: float, x2: float, lift: float, stroke: str, width: int) -> str:
    mx = (x1 + x2) / 2
    return (
        f'<path d="M {_fmt(x1)} {_fmt(y)} Q {_fmt(mx)} {_fmt(y - lift)} '
        f'{_fmt(x2)} {_fmt(y)}" fill="none" stroke="{stroke}" stroke-width="{width}"/>'
    )


def diagram_svg(diag: FloorDiagram) -> str:
    """Vertices on a row, edges as arcs, weights >= 2 labeled."""
    y = HEIGHT / 2
    width = 2 * MARGIN + UNIT * (diag.d - 1) or 2 * MARGIN

    def vx(v: int) -> float:
        return MARGIN + UNIT * (v - 1)

    body = []
    copies: dict[tuple[int, int], int] = {}
    for s, t, w in diag.edges:
        c = copies.get((s, t), 0)
        copies[(s, t)] = c + 1
        lift = 18 * (t - s) + 26 * c
        body.append(_arc(vx(s), y, vx(t), lift, STROKE, 2))
        if w > 1:
            mx = (vx(s) + vx(t)) / 2
            body.append(
                f'<text x="{_fmt(mx)}" y="{_fmt(y - lift / 2 - 6)}" '
                f'font-size="14" text-anchor="middle">{w}</text>'
            )
    for v in range(1, diag.d + 1):
        body.append(
            f'<circle cx="{_fmt(vx(v))}" cy="{_fmt(y)}" r="{RADIUS}" '
            f'fill="white" stroke="{STROKE}" stroke-width="2"/>'
        )
    return _svg(int(width), HEIGHT, body)


def marking_svg(diag: FloorDiagram, order: tuple[str, ...]) -> str:
    """Marked diagram: every element on a row, decorated-graph edges as arcs."""
    floors, items = ordinary_labels(diag)
    order, pos = checked_order(diag, order)
    y = HEIGHT / 2
    pitch = UNIT // 2
    width = 2 * MARGIN + pitch * (len(order) - 1)

    def px(label: str) -> float:
        return MARGIN + pitch * pos[label]

    arcs: list[tuple[str, str, int]] = []
    for label in sorted(items, key=pos.get):
        upper, lower, w = items[label]
        arcs.append((floors[upper - 1], label, w))
        if lower is not None:
            arcs.append((label, floors[lower - 1], w))
    body = []
    for a, b, w in arcs:
        span = abs(pos[b] - pos[a])
        lift = 10 + 8 * span
        body.append(_arc(px(a), y, px(b), lift, STROKE, 1 + (w > 1)))
        if w > 1:
            mx = (px(a) + px(b)) / 2
            body.append(
                f'<text x="{_fmt(mx)}" y="{_fmt(y - lift / 2 - 4)}" '
                f'font-size="12" text-anchor="middle">{w}</text>'
            )
    for label in order:
        if label not in items:
            body.append(
                f'<circle cx="{_fmt(px(label))}" cy="{_fmt(y)}" r="{RADIUS}" '
                f'fill="white" stroke="{STROKE}" stroke-width="2"/>'
            )
        else:
            body.append(
                f'<circle cx="{_fmt(px(label))}" cy="{_fmt(y)}" r="{DOT}" '
                f'fill="{STROKE}"/>'
            )
    return _svg(int(width), HEIGHT, body)


def sketch_svg(sketch: TropicalCurveSketch) -> str:
    """Floors as polylines with rays, elevators as vertical strokes.

    Every coordinate is converted once to an integer over one common
    denominator: 100 times the lcm of the coordinates' denominators, times
    the lcm of the ray slopes' denominators, so that both tenth paddings
    and every ray end stay integers.  A point then maps by one integer
    subtraction and one int / int division.  Python rounds that quotient
    correctly, as it does float(Fraction), which is numerator / denominator:
    both round the same rational, so every digit matches the exact Fraction
    mapping.
    """
    floors, elevators = sketch.floors, sketch.elevators
    values = [q for f in floors for p in (*f.breakpoints, f.anchor) for q in p]
    values += [q for e in elevators for q in (e.x, e.top, *e.point)]
    values += [e.bottom for e in elevators if e.bottom is not None]
    ray_slopes = [(f.slopes[0], f.slopes[-1]) for f in floors]
    unit = (
        100
        * lcm(*{q.denominator for q in values})
        * lcm(*{s.denominator for pair in ray_slopes for s in pair})
    )

    def scaled(q: Fraction) -> int:
        numerator, denominator = q.as_integer_ratio()
        return numerator * (unit // denominator)

    def scaled_point(p: tuple[Fraction, Fraction]) -> tuple[int, int]:
        return scaled(p[0]), scaled(p[1])

    anchors = [scaled_point(f.anchor) for f in floors]
    paths = [[scaled_point(p) for p in f.breakpoints] or [a] for f, a in zip(floors, anchors)]
    lifts = [
        (
            scaled(e.x),
            scaled(e.top),
            None if e.bottom is None else scaled(e.bottom),
            scaled_point(e.point),
        )
        for e in elevators
    ]
    xs = [x for path in paths for x, _ in path] + [x for x, _ in anchors]
    xs += [lift[0] for lift in lifts]
    ys = [y for path in paths for _, y in path] + [y for _, y in anchors]
    ys += [y for _, top, bottom, (_, py) in lifts for y in (top, py, bottom) if y is not None]
    x_lo, x_hi = min(xs) - unit, max(xs) + unit
    y_lo, y_hi = min(ys), max(ys)
    # every value is a multiple of 100, so both tenths divide exactly
    y_lo -= (y_hi - y_lo) // 10 + unit
    y_hi += (y_hi - y_lo) // 10 + unit
    x_span, y_span = x_hi - x_lo, y_hi - y_lo
    inner = SKETCH_SIZE - 2 * MARGIN

    def sx(x: int) -> float:
        return MARGIN + (x - x_lo) / x_span * inner

    def sy(y: int) -> float:
        return MARGIN + (y_hi - y) / y_span * inner

    body = []
    for path, (ax, ay), (s_left, s_right) in zip(paths, anchors, ray_slopes):
        (bx, by), (ex, ey) = path[0], path[-1]
        left = by + s_left.numerator * (x_lo - bx) // s_left.denominator
        right = ey + s_right.numerator * (x_hi - ex) // s_right.denominator
        line = [(x_lo, left), *path, (x_hi, right)]
        svg_path = "M " + " L ".join(f"{_fmt(sx(x))} {_fmt(sy(y))}" for x, y in line)
        body.append(f'<path d="{svg_path}" fill="none" stroke="{STROKE}" stroke-width="2"/>')
        body.append(
            f'<circle cx="{_fmt(sx(ax))}" cy="{_fmt(sy(ay))}" r="{DOT + 1}" '
            f'fill="white" stroke="{STROKE}" stroke-width="2"/>'
        )
    for e, (x, top_y, bottom_y, (px, py)) in zip(elevators, lifts):
        ex, top = sx(x), sy(top_y)
        bottom = sy(y_lo if bottom_y is None else bottom_y)
        body.append(
            f'<line x1="{_fmt(ex)}" y1="{_fmt(top)}" '
            f'x2="{_fmt(ex)}" y2="{_fmt(bottom)}" '
            f'stroke="{ACCENT}" stroke-width="{1 + e.weight}"/>'
        )
        body.append(
            f'<circle cx="{_fmt(sx(px))}" cy="{_fmt(sy(py))}" r="{DOT}" '
            f'fill="{ACCENT}"/>'
        )
        if e.weight > 1:
            body.append(
                f'<text x="{_fmt(ex + 6)}" y="{_fmt((top + bottom) / 2)}" '
                f'font-size="13">{e.weight}</text>'
            )
    return _svg(SKETCH_SIZE, SKETCH_SIZE, body)


def render_svg(obj, path, order: tuple[str, ...] | None = None) -> Path:
    """Write the SVG for a diagram, marked diagram or sketch to ``path``."""
    if isinstance(obj, TropicalCurveSketch):
        content = sketch_svg(obj)
    elif isinstance(obj, FloorDiagram) and order is not None:
        content = marking_svg(obj, order)
    elif isinstance(obj, FloorDiagram):
        content = diagram_svg(obj)
    else:
        raise TypeError(f"cannot render {type(obj).__name__}")
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(content, encoding="utf-8")
    return out
