"""One timed pass of one workload, in a fresh process.

Usage: ``python worker.py <root> <workload> <mode>`` with the workload's
inputs as JSON on stdin; ``mode`` is ``plain``, ``warm`` (a cold pass,
then a second pass after clearing only the top-level invariant caches)
or ``traced``.  Prints one JSON object on stdout.

The worker also times a fixed loop before and after the solve, so that
the benchmark can tell how fast the host ran while the sample did.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace

CALIBRATION_ROUNDS = 3  # before and after the solve


def calibration_s() -> float:
    """Wall time of a fixed loop that runs no package code.

    Half of it is integer arithmetic, half builds and sorts small tables,
    so that it is slowed both by a busy core and by a busy memory system.
    It allocates too little to move the process's peak memory and almost
    nothing the garbage collector tracks, so the package's caches do not
    change its time.
    """
    start = time.perf_counter()
    x = 0
    for i in range(150_000):
        x = (x * 31 + i) % 1_000_003
    for _ in range(8):
        table = {}
        for i in range(5_000):
            table[(i * 7919) % 100_003] = i
        x += sum(table[k] for k in sorted(table)[::3])
    return time.perf_counter() - start


def layer_metrics(tracer, gap_dp) -> dict:
    calls, busy, own, counts = tracer.calls, tracer.busy, tracer.self_time, tracer.counts
    exact = counts.get("core.exact_count_sets", 0)
    lookups = gap_dp.hits + gap_dp.misses
    return {
        "enumeration.all_diagrams_calls": calls.get("enumeration.all_diagrams", 0),
        "enumeration.all_diagrams_s": busy.get("enumeration.all_diagrams", 0.0),
        "enumeration.sets_returned": counts.get("enumeration.sets_returned", 0),
        "core.build_s": own.get("core.enumerate_diagrams", 0.0),
        "core.diagrams_built": counts.get("core.diagrams_built", 0),
        "core.kept_ratio": counts.get("core.kept", 0) / exact if exact else 0.0,
        "markings.calls": calls.get("markings.count", 0),
        "markings.s": busy.get("markings.count", 0.0),
        "markings.distributions": counts.get("markings.distributions", 0),
        "markings.gapdp_s": busy.get("markings.gapdp", 0.0),
        "markings.gapdp_hits": gap_dp.hits,
        "markings.gapdp_misses": gap_dp.misses,
        "markings.gapdp_hit_ratio": gap_dp.hits / lookups if lookups else 0.0,
        "markings.list_s": busy.get("markings.list", 0.0),
        "markings.listed": counts.get("markings.listed", 0),
        "invariants.self_s": own.get("invariants.top", 0.0),
        "nodepoly.templates": counts.get("nodepoly.templates", 0),
        "nodepoly.templates_s": busy.get("nodepoly.templates", 0.0),
        "nodepoly.extension_calls": calls.get("nodepoly.extension", 0),
        "nodepoly.extension_s": busy.get("nodepoly.extension", 0.0),
        "nodepoly.discrete_sum_calls": calls.get("nodepoly.discrete_sum", 0),
        "nodepoly.discrete_sum_s": busy.get("nodepoly.discrete_sum", 0.0),
        "nodepoly.self_s": own.get("nodepoly.top", 0.0),
        "sequences.round_trips": calls.get("sequences.to_diagram", 0),
        "sequences.to_tree_s": busy.get("sequences.to_tree", 0.0),
        "sequences.to_diagram_s": busy.get("sequences.to_diagram", 0.0),
        "tropical.reconstruct_calls": calls.get("tropical.reconstruct", 0),
        "tropical.reconstruct_s": busy.get("tropical.reconstruct", 0.0),
        "tropical.verify_s": busy.get("tropical.verify", 0.0),
        "render.svg_s": busy.get("render.svg", 0.0),
        "render.svg_bytes": counts.get("render.svg_bytes", 0),
    }


def main() -> None:
    root, workload, mode = Path(sys.argv[1]), sys.argv[2], sys.argv[3]
    src = root / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(Path(__file__).resolve().parent))

    import floordiagrams as fd
    from floordiagrams import invariants, markings, render, tables

    t_tables = time.perf_counter()
    tables.gw_table()
    tables.severi_table()
    tables.aj_reference()
    tables_s = time.perf_counter() - t_tables
    ready = time.monotonic()
    if Path(fd.__file__).resolve().parent != (src / "floordiagrams").resolve():
        sys.exit(f"imported floordiagrams from {fd.__file__}, not from {src}")

    from workloads import WORKLOADS

    inputs = json.loads(sys.stdin.read())
    api = SimpleNamespace(**{name: getattr(fd, name) for name in fd.__all__})
    api.list_markings = markings.list_markings
    api.sketch_svg = render.sketch_svg
    tracer = None
    if mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(api, tracer)

    solve = WORKLOADS[workload].solve
    calibration = [calibration_s() for _ in range(CALIBRATION_ROUNDS)]
    t0 = time.perf_counter()
    answers = solve(api, inputs)
    solve_s = time.perf_counter() - t0
    calibration += [calibration_s() for _ in range(CALIBRATION_ROUNDS)]
    out = {
        "calibration_s": calibration,
        "ready": ready,
        "tables_s": tables_s,
        "solve_s": solve_s,
        "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "answers": {key: str(value) for key, value in answers.items()},
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, markings._gap_dp.cache_info())
        trace_dir = root / ".perfbench"
        trace_dir.mkdir(exist_ok=True)
        tracer.write_spans(trace_dir / f"spans-{workload}.jsonl")
    if mode == "warm":
        for cached in (invariants.gw, invariants.severi, invariants.relative_gw):
            cached.cache_clear()
        t0 = time.perf_counter()
        warm = solve(api, inputs)
        out["warm_solve_s"] = time.perf_counter() - t0
        out["warm_answers"] = {key: str(value) for key, value in warm.items()}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
