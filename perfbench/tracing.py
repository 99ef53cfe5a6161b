"""In-memory span tracer installed around floordiagrams' public entry points.

The tracer never edits the package: it replaces module attributes at run
time with timing wrappers, so only calls that go through those attributes
are seen.  Each span records its name, its parent's name, its start and
end, and the time it was busy; a generator's span is the sum of the time
spent inside its ``next`` calls, so work the consumer does between items
is not charged to it.  A span's self time is its busy time minus the busy
time of its direct children.
"""

from __future__ import annotations

import json
from time import perf_counter


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, start, child_busy]
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []  # (name, parent, start, end, busy)

    # -- span bookkeeping ------------------------------------------------

    def _push(self, name: str) -> None:
        self.stack.append([name, perf_counter(), 0.0])

    def _pop(self) -> tuple[str, float, float]:
        end = perf_counter()
        name, start, child = self.stack.pop()
        busy = end - start
        self.busy[name] = self.busy.get(name, 0.0) + busy
        self.self_time[name] = self.self_time.get(name, 0.0) + busy - child
        if self.stack:
            self.stack[-1][2] += busy
        return name, start, end

    def _parent(self):
        return self.stack[-1][0] if self.stack else None

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def in_span(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    # -- wrappers --------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as one span."""
        parent = self._parent()
        self.calls[name] = self.calls.get(name, 0) + 1
        self._push(name)
        try:
            return fn(*args, **kwargs)
        finally:
            _, start, end = self._pop()
            self.spans.append((name, parent, start, end, end - start))

    def wrap(self, name: str, fn, on_result=None):
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_generator(self, name: str, fn, item_key: str):
        """Span over the time spent inside the generator; counts its items."""

        def wrapper(*args, **kwargs):
            parent = self._parent()
            self.calls[name] = self.calls.get(name, 0) + 1
            it = fn(*args, **kwargs)
            first = last = None
            busy = 0.0
            while True:
                self._push(name)
                try:
                    item = next(it)
                    done = False
                except StopIteration:
                    done = True
                finally:
                    _, start, end = self._pop()
                    first = start if first is None else first
                    last = end
                    busy += end - start
                if done:
                    self.spans.append((name, parent, first, last, busy))
                    return
                self.add(item_key)
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, key: str, fn, when=None):
        """Count calls without timing them (for very frequent calls)."""

        def wrapper(*args, **kwargs):
            if when is None or when():
                self.add(key)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- output ----------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, parent, start, end, busy in self.spans:
                out.write(
                    json.dumps(
                        {"name": name, "parent": parent, "start": start,
                         "end": end, "busy": busy}
                    )
                    + "\n"
                )


def install(api, tracer: Tracer) -> None:
    """Wrap the public entry points of each floordiagrams module.

    ``api`` holds the functions the workloads call directly.  A function
    that a package module imported by name is patched in that module too,
    because that is the reference its callers look up.
    """
    from floordiagrams import core, enumeration, invariants, markings, nodepoly

    enumeration.all_diagrams = tracer.wrap(
        "enumeration.all_diagrams",
        enumeration.all_diagrams,
        lambda sets: tracer.add("enumeration.sets_returned", len(sets)),
    )
    enumerate_diagrams = tracer.wrap_generator(
        "core.enumerate_diagrams", enumeration.enumerate_diagrams, "core.kept"
    )
    invariants.enumerate_diagrams = enumerate_diagrams
    api.enumerate_diagrams = enumerate_diagrams
    core.FloorDiagram.__post_init__ = tracer.counter(
        "core.diagrams_built", core.FloorDiagram.__post_init__
    )
    # inside enumerate_diagrams, classify runs once per edge set of the exact count
    core.FloorDiagram.classify = tracer.counter(
        "core.exact_count_sets",
        core.FloorDiagram.classify,
        when=lambda: tracer.in_span("core.enumerate_diagrams"),
    )

    invariants.count_markings = tracer.wrap("markings.count", invariants.count_markings)
    invariants.count_relative_markings = tracer.wrap(
        "markings.count", invariants.count_relative_markings
    )
    markings.count_orderings = tracer.wrap("markings.gapdp", markings.count_orderings)
    distributions = markings.enumerate_distributions

    def counted_distributions(*args, **kwargs):
        for dist in distributions(*args, **kwargs):
            tracer.add("markings.distributions")
            yield dist

    markings.enumerate_distributions = counted_distributions

    template_sets: set[int] = set()

    def distinct_templates(templates):
        # enumerate_templates is memoized: one result object per cogenus
        if id(templates) not in template_sets:
            template_sets.add(id(templates))
            tracer.add("nodepoly.templates", len(templates))

    nodepoly.enumerate_templates = tracer.wrap(
        "nodepoly.templates", nodepoly.enumerate_templates, distinct_templates
    )
    nodepoly.extension_polynomial = tracer.wrap(
        "nodepoly.extension", nodepoly.extension_polynomial
    )
    nodepoly.discrete_sum = tracer.wrap("nodepoly.discrete_sum", nodepoly.discrete_sum)

    for attr in ("gw", "severi", "relative_gw"):
        setattr(api, attr, tracer.wrap("invariants.top", getattr(api, attr)))
    api.aj_polynomials = tracer.wrap("nodepoly.top", api.aj_polynomials)
    api.count_connected = tracer.wrap("enumeration.count_connected", api.count_connected)
    api.diagram_to_tree = tracer.wrap("sequences.to_tree", api.diagram_to_tree)
    api.tree_to_diagram = tracer.wrap("sequences.to_diagram", api.tree_to_diagram)
    api.list_markings = tracer.wrap(
        "markings.list",
        api.list_markings,
        lambda listed: tracer.add("markings.listed", len(listed)),
    )
    api.reconstruct = tracer.wrap("tropical.reconstruct", api.reconstruct)
    api.verify_curve = tracer.wrap("tropical.verify", api.verify_curve)
    api.sketch_svg = tracer.wrap(
        "render.svg",
        api.sketch_svg,
        lambda svg: tracer.add("render.svg_bytes", len(svg.encode())),
    )
