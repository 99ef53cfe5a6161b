"""Layered benchmark for floordiagrams.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload gw-column --seed 1 --seconds 25 --trace 0

Every sample is a fresh, single-threaded worker process that imports the
package from ``src/``, loads the reference tables, and runs the workload's
queries with cold in-process caches.  Samples repeat until ``--seconds``
have passed; each metric is the median over the samples of the run, and
every time is rescaled to a host running at full speed (see ``rescale``).

With ``--trace 0`` the last line of stdout holds the end-to-end metrics:

- ``solve_s``: wall seconds from the first query to the last answer;
- ``setup_s``: wall seconds from spawning the process until the package is
  imported and its reference tables are loaded;
- ``peak_rss_mb``: peak resident memory of the worker process.

With ``--trace 1`` it holds the per-layer metrics: the run rotates through
an untraced process (which also makes a warm second pass), a traced
process and a process with ``FLOORDIAGRAMS_THREADS=2``.

Every answer is compared with its reference after the timing ends; the
counts go to ``attempted`` and ``failed``, a summary with units goes to
stderr, and the exit code is 1 when any answer differs.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_TIMEOUT_S = 120
MIN_CYCLES = 2  # two traced passes, so their counts can be compared
# the worker's calibration loop on an idle host (x86-64, CPython 3.11)
QUIET_CALIBRATION_S = 0.018


class WorkerError(RuntimeError):
    pass


def worker_env(threads: int) -> dict:
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(("PYTHON", "FLOORDIAGRAMS_"))
    }
    env["PYTHONHASHSEED"] = "0"
    if threads > 1:
        env["FLOORDIAGRAMS_THREADS"] = str(threads)
    return env


def run_worker(workload: str, mode: str, inputs: str, threads: int = 1) -> dict:
    """Run one worker; kill its whole process group once it is done."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-s", str(HERE / "worker.py"), str(ROOT), workload, mode],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=worker_env(threads),
        cwd=ROOT,
        start_new_session=True,
        text=True,
    )
    try:
        out, err = proc.communicate(inputs, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError(f"{workload} worker ({mode}) timed out")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise WorkerError(f"{workload} worker ({mode}) failed:\n{err.strip()}")
    sample = json.loads(out.strip().splitlines()[-1])
    sample["setup_s"] = sample["ready"] - spawned
    return rescale(sample)


def rescale(sample: dict) -> dict:
    """Express the sample's times in seconds of a host running at full speed.

    Other tenants of a shared host slow it by up to 1.8x for stretches of
    ten seconds and more.  A fixed loop timed in the same process just
    before and after the solve shows how fast the host ran.  The sample's
    times here, and its span times in ``per_layer``, are multiplied by
    QUIET_CALIBRATION_S over the loop's median time.
    """
    scale = QUIET_CALIBRATION_S / statistics.median(sample["calibration_s"])
    sample["scale"] = scale
    for key in ("setup_s", "solve_s", "tables_s", "warm_solve_s"):
        if key in sample:
            sample[key] *= scale
    return sample


def collect(workload: str, trace: bool, inputs: str, seconds: float) -> list[dict]:
    """Samples until ``seconds`` have passed; in trace mode, rotate modes."""
    cycle = [("warm", 1), ("traced", 1), ("plain", 2)] if trace else [("plain", 1)]
    samples = []
    start = time.monotonic()
    while time.monotonic() - start < seconds or len(samples) < MIN_CYCLES * len(cycle):
        for mode, threads in cycle:
            sample = run_worker(workload, mode, inputs, threads)
            sample["mode"], sample["threads"] = mode, threads
            samples.append(sample)
    return samples


def check(samples: list[dict], expected: dict) -> tuple[int, int]:
    """Attempted and failed answers over every pass of every sample."""
    attempted = failed = 0
    for sample in samples:
        for answers in (sample["answers"], sample.get("warm_answers")):
            if answers is None:
                continue
            keys = expected.keys() | answers.keys()
            attempted += len(keys)
            failed += sum(1 for key in keys if answers.get(key) != expected.get(key))
    traced = [s["layers"] for s in samples if "layers" in s]
    counts = [
        {k: v for k, v in layers.items() if isinstance(v, int)} for layers in traced
    ]
    if counts:
        # every count a traced pass records must repeat exactly
        attempted += len(counts) - 1
        failed += sum(1 for c in counts[1:] if c != counts[0])
    return attempted, failed


def median_of(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def end_to_end(samples: list[dict]) -> dict:
    return {
        "solve_s": median_of(samples, "solve_s"),
        "setup_s": median_of(samples, "setup_s"),
        "peak_rss_mb": statistics.median(s["rss_kib"] * 1024 / 1e6 for s in samples),
    }


def per_layer(samples: list[dict], units: dict) -> dict:
    serial = [s for s in samples if s["mode"] == "warm"]
    traced = [s for s in samples if s["mode"] == "traced"]
    pool = [s for s in samples if s["threads"] == 2]
    layers = {
        name: statistics.median(
            s["layers"][name] * (s["scale"] if units[name] == "s" else 1) for s in traced
        )
        if isinstance(value, float)
        else value
        for name, value in traced[0]["layers"].items()
    }
    serial_solve = median_of(serial, "solve_s")
    layers["invariants.pool2_solve_s"] = median_of(pool, "solve_s")
    layers["invariants.pool2_speedup"] = serial_solve / layers["invariants.pool2_solve_s"]
    layers["tables.load_s"] = median_of(samples, "tables_s")
    layers["warm.solve_s"] = median_of(serial, "warm_solve_s")
    layers["trace.solve_s"] = median_of(traced, "solve_s")
    layers["trace.overhead_s"] = layers["trace.solve_s"] - serial_solve
    return layers


def summary(workload: str, samples: list[dict]) -> str:
    """Spread of the plain solve times behind the reported figure."""
    plain = [s for s in samples if s["mode"] != "traced" and s["threads"] == 1]
    times = sorted(s["solve_s"] for s in plain)
    raw = sorted(s["solve_s"] / s["scale"] for s in plain)
    return (
        f"{workload:16} solve_s over {len(times)} samples: min {times[0]:.4g} "
        f"median {statistics.median(times):.4g} max {times[-1]:.4g} s; "
        f"wall before rescaling: min {raw[0]:.4g} median {statistics.median(raw):.4g} "
        f"max {raw[-1]:.4g} s"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "floordiagrams" / "__init__.py").is_file():
        print(f"no floordiagrams sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    try:
        samples = collect(args.workload, bool(args.trace), json.dumps(inputs), args.seconds)
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1
    attempted, failed = check(samples, workload.expected(inputs))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {
        m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]
    }
    metrics = per_layer(samples, units) if args.trace else end_to_end(samples)
    metrics = {name: metrics[name] for name in units}

    for name, value in metrics.items():
        print(f"{args.workload:16} {name:32} {value:14.6g} {units[name]}", file=sys.stderr)
    print(f"{args.workload:16} {'failed_frac':32} {failed / attempted:14.6g} ratio "
          f"({failed} of {attempted} answers; {len(samples)} samples)", file=sys.stderr)
    print(summary(args.workload, samples), file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
