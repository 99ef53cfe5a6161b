"""The benchmark's tracer still sees the calls it counts.

``perfbench/tracing.py`` patches module attributes of the package; a
refactor that stops calling through one of them silently zeroes a
per-layer metric.  This runs the tracer, unchanged, in a fresh process.

``gw``, ``severi`` and ``relative_gw`` come from the fused floor sweep,
which builds no diagram and counts no marking, so the diagram sums the
tracer counts are issued through ``invariants._weighted_marking_sum``
directly.
"""

import json
import subprocess
import sys
from pathlib import Path

from floordiagrams.enumeration import DiagramQuery, enumerate_diagrams

ROOT = Path(__file__).resolve().parents[1]

TRACED_RUN = """
import json, sys
from types import SimpleNamespace
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import floordiagrams as fd
from floordiagrams import invariants, markings, render
from floordiagrams.core import Partition
from floordiagrams.enumeration import DiagramQuery
import tracing

api = SimpleNamespace(**{name: getattr(fd, name) for name in fd.__all__})
api.list_markings = markings.list_markings
api.sketch_svg = render.sketch_svg
tracer = tracing.Tracer()
tracing.install(api, tracer)
api.gw(4, 0)
api.severi(4, 2)
api.relative_gw(3, 0, Partition((2,)), Partition((1,)))
sweep_calls = tracer.calls.get("markings.count", 0)
ones = Partition.ones(4)
invariants._weighted_marking_sum(DiagramQuery(4, genus=0), Partition(()), ones)
invariants._weighted_marking_sum(DiagramQuery(4, cogenus=2), Partition(()), ones)
invariants._weighted_marking_sum(DiagramQuery(3, genus=0), Partition((2,)), Partition((1,)))
print(json.dumps({"calls": tracer.calls, "counts": tracer.counts, "sweep_calls": sweep_calls}))
"""


def test_tracer_counts_every_diagram_of_the_invariant_sums():
    queries = [DiagramQuery(4, genus=0), DiagramQuery(4, cogenus=2), DiagramQuery(3, genus=0)]
    diagrams = sum(1 for query in queries for _ in enumerate_diagrams(query))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(proc.stdout)
    assert traced["calls"]["markings.count"] == diagrams
    assert traced["counts"]["core.diagrams_built"] >= diagrams
    assert traced["calls"]["enumeration.all_diagrams"] >= 1
    assert traced["sweep_calls"] == 0
