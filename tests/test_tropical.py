import hashlib
from fractions import Fraction

import pytest

from floordiagrams.core import DiagramError, Partition, diagram
from floordiagrams.enumeration import DiagramQuery, enumerate_diagrams
from floordiagrams.markings import canonical_marking, list_markings, ordinary_labels
from floordiagrams.oracles import (
    _poset_elements,
    build_poset,
    copy_with,
    distributions_oracle,
    extract_marking,
    perturb_elevator,
    verify_curve_oracle,
)
from floordiagrams.render import diagram_svg, marking_svg, render_svg, sketch_svg
from floordiagrams.tropical import (
    StretchedConfig,
    reconstruct,
    stretched_config,
    verify_curve,
)

P = Partition
EXAMPLE = diagram(4, [(1, 2, 1), (2, 3, 1), (2, 3, 1), (3, 4, 2)])
# the README `tropical reconstruct` example, at the default config seed
README_CUBIC = diagram(3, [(1, 2, 1), (2, 3, 1)])
README_MARKING = tuple("v1 e1-2w1#0 v2 e2-3w1#0 v3 s2w1#0 s3w1#0 s3w1#1".split())


def readme_sketch():
    return reconstruct(README_CUBIC, README_MARKING, stretched_config(3, 0, 0))


def ordinary_markings(diag):
    return list_markings(diag, P(()), P.ones(diag.d))


def test_config_sizes_and_inequalities():
    for d, g in [(1, 0), (3, 0), (4, 1)]:
        cfg = stretched_config(d, g, 0)
        assert len(cfg.points) == 3 * d - 1 + g
    cfg = stretched_config(3, 0, 0)
    xs = [p[0] for p in cfg.points]
    ys = [p[1] for p in cfg.points]
    factor = 3**3 + 3
    assert min(b - a for a, b in zip(ys, ys[1:])) > factor * (xs[-1] - xs[0])


def test_config_determinism_and_seed_sensitivity():
    assert stretched_config(3, 0, 7) == stretched_config(3, 0, 7)
    assert stretched_config(3, 0, 7) != stretched_config(3, 0, 8)


def test_config_validation():
    with pytest.raises(DiagramError):
        StretchedConfig(2, 0, ((Fraction(1), Fraction(1)),))
    with pytest.raises(DiagramError):
        StretchedConfig(
            1,
            0,
            ((Fraction(1), Fraction(1)), (Fraction(2), Fraction(2))),
        )
    with pytest.raises(DiagramError, match="^x coordinates must increase strictly$"):
        StretchedConfig(1, 0, ((2, 1), (1, 100)))
    with pytest.raises(DiagramError, match="^y coordinates must increase strictly$"):
        StretchedConfig(1, 0, ((1, 100), (2, 100)))


def test_nine_rational_cubic_sketches():
    cfg = stretched_config(3, 0, 0)
    sketches = []
    for diag_ in enumerate_diagrams(DiagramQuery(3, genus=0)):
        for order in ordinary_markings(diag_):
            sketch = reconstruct(diag_, order, cfg)
            assert verify_curve(sketch, 3, 0).ok
            sketches.append(sketch)
    assert len(sketches) == 9
    skeletons = {
        tuple(
            (e.upper_floor, e.lower_floor, e.weight, sketch.marking.index(e.label))
            for e in sketch.elevators
        )
        for sketch in sketches
    }
    assert len(skeletons) == 9  # reconstruction is injective on markings


def test_single_line_sketch():
    cfg = stretched_config(1, 0, 0)
    sketch = reconstruct(diagram(1), ("v1", "s1w1#0"), cfg)
    assert len(sketch.floors) == 1
    assert not [e for e in sketch.elevators if e.lower_floor is not None]
    assert verify_curve(sketch, 1, 0).ok


def test_weighted_elevator_sketch():
    cfg = stretched_config(4, 1, 0)
    order = ordinary_markings(EXAMPLE)[0]
    sketch = reconstruct(EXAMPLE, order, cfg)
    assert verify_curve(sketch, 4, 1).ok
    assert len(sketch.floors) == 4
    bounded = [e for e in sketch.elevators if e.lower_floor is not None]
    assert sorted(e.weight for e in bounded) == [1, 1, 1, 2]


def test_round_trip_markings():
    for d, g in [(1, 0), (2, 0), (3, 0), (3, 1)]:
        cfg = stretched_config(d, g, 3)
        for diag_ in enumerate_diagrams(DiagramQuery(d, genus=g)):
            for order in ordinary_markings(diag_):
                sketch = reconstruct(diag_, order, cfg)
                diag_back, order_back = extract_marking(sketch)
                assert diag_back == diag_
                assert order_back == canonical_marking(order)


def test_fault_injection_fails_balancing():
    cfg = stretched_config(3, 0, 0)
    diag_ = diagram(3, [(1, 2, 1), (2, 3, 1)])
    sketch = reconstruct(diag_, ordinary_markings(diag_)[0], cfg)
    bounded_index = next(
        i for i, e in enumerate(sketch.elevators) if e.lower_floor is not None
    )
    bad = perturb_elevator(sketch, bounded_index, +1)
    report = verify_curve(bad, 3, 0)
    assert not report.ok
    assert any("balancing" in c.name for c in report.failures())


def test_verify_curve_reports_an_elevator_off_its_breakpoint():
    sketch = readme_sketch()
    bounded = sketch.elevators[0]
    assert (bounded.upper_floor, bounded.lower_floor) == (1, 2)
    moved = copy_with(bounded, x=bounded.x + Fraction(1, 7))
    bad = copy_with(sketch, elevators=(moved, *sketch.elevators[1:]))
    failures = [(c.name, c.detail) for c in verify_curve(bad, 3, 0).failures()]
    (px, py), top, bottom = bounded.point, bounded.top, bounded.bottom
    assert failures == [
        (f"floor 1 breakpoint at x={bounded.x}", "0 elevators meet it"),
        (f"floor 2 breakpoint at x={bounded.x}", "0 elevators meet it"),
        # the black point stayed behind at the old x
        ("elevator e1-2w1#0 point", f"({px}, {py}) off x={moved.x}, y from {bottom} to {top}"),
    ]


def test_verify_curve_reads_the_black_points():
    sketch = readme_sketch()
    bounded = sketch.elevators[0]
    (px, py), thirteenth = bounded.point, Fraction(1, 13)
    for point in [(px + thirteenth, py), (px, bounded.top + thirteenth)]:
        moved = copy_with(bounded, point=point)
        bad = copy_with(sketch, elevators=(moved, *sketch.elevators[1:]))
        report = verify_curve(bad, 3, 0)
        assert not report.ok
        assert [c.name for c in report.failures()] == ["elevator e1-2w1#0 point"]
        assert repr(report) == repr(verify_curve_oracle(bad, 3, 0))
    # a ground elevator has no bottom, but its point must stay below the top
    at = next(i for i, e in enumerate(sketch.elevators) if e.lower_floor is None)
    ground = sketch.elevators[at]
    moved = copy_with(ground, point=(ground.point[0], ground.top))
    bad = copy_with(sketch, elevators=(*sketch.elevators[:at], moved, *sketch.elevators[at + 1:]))
    failures = [c.name for c in verify_curve(bad, 3, 0).failures()]
    assert failures == [f"elevator {ground.label} point"]


def test_verify_curve_reads_the_floor_heights():
    diag_ = diagram(3, [(1, 2, 1), (2, 3, 2)])
    order = ordinary_markings(diag_)[0]
    sketch = reconstruct(diag_, order, stretched_config(3, 0, 1))
    floor = sketch.floors[1]
    (ax, ay), ((bx, by), *rest) = floor.anchor, floor.breakpoints
    raised_anchor = copy_with(floor, anchor=(ax, ay + Fraction(1, 13)))
    raised_breakpoint = copy_with(floor, breakpoints=((bx, by + 1), *rest))
    for bent, failed in [
        (raised_anchor, "floor 2 anchor"),
        (raised_breakpoint, f"floor 2 segment to x={rest[0][0]}"),
    ]:
        bad = copy_with(sketch, floors=(sketch.floors[0], bent, *sketch.floors[2:]))
        report = verify_curve(bad, 3, 0)
        assert [c.name for c in report.failures()] == [failed]
        assert repr(report) == repr(verify_curve_oracle(bad, 3, 0))


def test_verify_curve_reads_the_elevator_ends():
    # floor 2 moved up bodily stays a straight polyline through its anchor,
    # but both elevators that meet it now end off it
    diag_ = diagram(3, [(1, 2, 1), (2, 3, 2)])
    order = ordinary_markings(diag_)[0]
    sketch = reconstruct(diag_, order, stretched_config(3, 0, 1))
    floor = sketch.floors[1]
    (ax, ay), breakpoints = floor.anchor, floor.breakpoints
    moved = copy_with(
        floor, anchor=(ax, ay + 1), breakpoints=tuple((x, y + 1) for x, y in breakpoints)
    )
    bad = copy_with(sketch, floors=(sketch.floors[0], moved, *sketch.floors[2:]))
    report = verify_curve(bad, 3, 0)
    ends = {e.label: (e.top, e.bottom) for e in sketch.elevators}
    assert [(c.name, c.detail) for c in report.failures()] == [
        (
            "elevator e2-3w2#0 end at floor 2",
            f"y={ends['e2-3w2#0'][0]}, floor at y={ends['e2-3w2#0'][0] + 1}",
        ),
        (
            "elevator e1-2w1#0 end at floor 2",
            f"y={ends['e1-2w1#0'][1]}, floor at y={ends['e1-2w1#0'][1] + 1}",
        ),
    ]
    assert repr(report) == repr(verify_curve_oracle(bad, 3, 0))
    # a ground elevator's top is read on its floor too
    at = next(i for i, e in enumerate(sketch.elevators) if e.lower_floor is None)
    ground = sketch.elevators[at]
    lowered = copy_with(ground, top=ground.top - 1, point=(ground.point[0], ground.top - 2))
    bad = copy_with(
        sketch, elevators=(*sketch.elevators[:at], lowered, *sketch.elevators[at + 1:])
    )
    report = verify_curve(bad, 3, 0)
    assert [c.name for c in report.failures()] == [
        f"elevator {ground.label} end at floor {ground.upper_floor}"
    ]
    assert repr(report) == repr(verify_curve_oracle(bad, 3, 0))


def test_verify_curve_reports_the_ground_census():
    sketch = readme_sketch()
    ground = next(i for i, e in enumerate(sketch.elevators) if e.lower_floor is None)
    report = verify_curve(perturb_elevator(sketch, ground, +1), 3, 0)
    failures = {c.name: c.detail for c in report.failures()}
    assert failures["census (0,-1)"] == "weight 4 of 3"


def test_verify_curve_reads_the_right_rays():
    sketch = readme_sketch()
    floor = sketch.floors[0]
    bent = copy_with(floor, slopes=(*floor.slopes[:-1], floor.slopes[-1] + 1))
    bad = copy_with(sketch, floors=(bent, *sketch.floors[1:]))
    failures = {c.name: c.detail for c in verify_curve(bad, 3, 0).failures()}
    assert failures["census (1,1)"] == "2 of 3"
    assert "census (-1,0)" not in failures and "degree" not in failures


def test_reconstruct_rejects_mismatched_inputs():
    cfg = stretched_config(3, 0, 0)
    diag_ = diagram(3, [(1, 2, 1), (2, 3, 1)])
    with pytest.raises(DiagramError):
        reconstruct(diagram(2, [(1, 2, 1)]), ("v1", "v2"), cfg)
    order = ordinary_markings(diag_)[0]
    shuffled = (order[1], order[0]) + order[2:]
    with pytest.raises(DiagramError):
        reconstruct(diag_, shuffled, cfg)
    with pytest.raises(DiagramError):
        reconstruct(diag_, order[:-1], cfg)


def test_marking_validation_catches_constraint_violations():
    diag_ = diagram(3, [(1, 2, 1), (2, 3, 1)])
    # sink of floor 2 placed before floor 2
    bad = ("v1", "s2w1#0", "v2", "e1-2w1#0", "v3", "e2-3w1#0", "s3w1#0", "s3w1#1")
    with pytest.raises(DiagramError):
        reconstruct(diag_, bad, stretched_config(3, 0, 0))


def test_svg_output_is_deterministic(tmp_path):
    first = diagram_svg(EXAMPLE)
    second = diagram_svg(EXAMPLE)
    assert first == second
    assert first.count("<circle") == 4
    assert ">2</text>" in first

    order = ordinary_markings(EXAMPLE)[0]
    marked = marking_svg(EXAMPLE, order)
    assert marked.count("<circle") == 12

    cfg = stretched_config(4, 1, 0)
    sketch = reconstruct(EXAMPLE, order, cfg)
    art = sketch_svg(sketch)
    assert art == sketch_svg(reconstruct(EXAMPLE, order, cfg))
    assert art.count("<line") == len(sketch.elevators)

    out = render_svg(EXAMPLE, tmp_path / "a.svg")
    assert out.read_text().startswith("<svg")
    render_svg(sketch, tmp_path / "b.svg")
    render_svg(EXAMPLE, tmp_path / "c.svg", order=order)
    with pytest.raises(TypeError):
        render_svg(42, tmp_path / "d.svg")


def test_marking_svg_is_pinned():
    # the README render diagram with one marking; copies are renumbered in
    # order of appearance before anything is drawn
    marking = (
        "v1 e1-2w1#0 v2 e2-3w1#1 e2-3w1#0 v3 e3-4w2#0 v4 s3w1#0 s4w1#2 s4w1#0 s4w1#1"
    )
    svg = marking_svg(EXAMPLE, tuple(marking.split()))
    assert hashlib.sha256(svg.encode()).hexdigest() == (
        "61da965f15e82780cf6f3fee7adf1e88e1780b70a4217737e7304b12ed117660"
    )


def test_sketch_svg_is_pinned():
    svg = sketch_svg(readme_sketch())
    assert hashlib.sha256(svg.encode()).hexdigest() == (
        "9d3a4613becac2302b0a34e407595da632a0fa3d5a6ed5297007680c5ad4650c"
    )


def test_gallery_svgs_reproduce_appendix_count(tmp_path):
    cfg = stretched_config(3, 0, 0)
    count = 0
    for diag_ in enumerate_diagrams(DiagramQuery(3, genus=0)):
        for order in ordinary_markings(diag_):
            sketch = reconstruct(diag_, order, cfg)
            count += 1
            render_svg(sketch, tmp_path / f"curve-{count:03d}.svg")
    assert count == 9
    assert len(list(tmp_path.glob("curve-*.svg"))) == 9


def test_ordinary_labels_equal_the_oracle_poset():
    # markings.ordinary_labels against oracles.build_poset: two readers of
    # the labels that share no code, on every diagram with d <= 5
    for d in range(1, 6):
        for delta in range(d - 1 + (d - 1) * (d - 2) // 2 + 1):
            for diag in enumerate_diagrams(DiagramQuery(d, cogenus=delta)):
                dist = next(distributions_oracle(diag, P(()), P.ones(d)))
                poset = build_poset(diag, dist, P(()))
                floors, items = [], {}
                for label, e in zip(poset.element_labels(), _poset_elements(poset)):
                    if e[0] == "F":
                        floors.append(label)
                    elif e[0] == "M":
                        items[label] = e[1:4]
                    else:
                        items[label] = (e[1], None, e[2])
                assert ordinary_labels(diag) == (tuple(floors), items), diag
                assert list(ordinary_labels(diag)[1]) == list(items), diag
