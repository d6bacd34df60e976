"""Engine micro-benchmarks: simulator throughput and heap operations.

Not a paper figure — these guard the simulator's own performance, which
bounds how large the reproduction workloads can grow.

Besides the pytest-benchmark guards, this module is runnable as a
script implementing the *recorded baseline* workflow::

    python -m benchmarks.bench_engine --record BENCH_engine.json   # pin
    python -m benchmarks.bench_engine --check  BENCH_engine.json   # compare

``--record`` measures the reference workloads and writes the numbers to
a JSON file (committed at the repo root as ``BENCH_engine.json``);
``--check`` re-measures and reports the speedup versus the recorded
baseline. It fails (exit 1) when a simulated makespan drifts from the
recorded one; a slower timing only warns unless ``--fail-under`` is
given.
The headline metric is **scheduler-core time**: the wall time spent
inside ``push``/``pop``/``force_pop``, isolated from the rest of the
engine by instrumenting the scheduler instance, so it measures exactly
the code the paper's Alg. 1/2 correspond to.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from benchmarks.conftest import bench_scale
from repro.apps.dense import cholesky_program
from repro.core.heap import TaskHeap
from repro.platform.machines import intel_v100, small_hetero
from repro.runtime.engine import Simulator
from repro.runtime.perfmodel import AnalyticalPerfModel
from repro.runtime.task import Task, TaskState
from repro.schedulers.registry import make_scheduler
from repro.utils.rng import make_rng

#: Reference workloads of the recorded baseline: name -> (scheduler,
#: n_tiles, tile_size, batch_step).  The headline acceptance workload is
#: the paper's Fig. 4/5 shape at n_tiles=16 under MultiPrio; the
#: ``-batch500`` variants exercise the coalesced hot path (drain-on-idle
#: enabled, so decisions still land the moment a worker would starve)
#: and record batch-size provenance alongside the timings.
BASELINE_WORKLOADS: dict[str, tuple[str, int, int, float | None]] = {
    "cholesky16-multiprio": ("multiprio", 16, 960, None),
    "cholesky16-dmdas": ("dmdas", 16, 960, None),
    "cholesky16-multiqueue": ("multiqueue", 16, 960, None),
    "cholesky16-multiprio-batch500": ("multiprio", 16, 960, 500.0),
    "cholesky16-multiqueue-batch500": ("multiqueue", 16, 960, 500.0),
}


def instrument_scheduler(scheduler) -> dict[str, float]:
    """Wrap ``push``/``pop``/``force_pop`` with wall-clock accounting.

    Returns the live totals dict (``seconds``, ``calls``); the wrappers
    are installed on the *instance*, so the class stays untouched.
    """
    totals = {"seconds": 0.0, "calls": 0.0}
    perf = time.perf_counter
    for name in ("push", "pop", "force_pop"):
        orig = getattr(scheduler, name)

        def timed(*args, _orig=orig):
            t0 = perf()
            out = _orig(*args)
            totals["seconds"] += perf() - t0
            totals["calls"] += 1
            return out

        setattr(scheduler, name, timed)
    return totals


def measure_workload(
    scheduler_name: str,
    n_tiles: int,
    tile_size: int,
    *,
    repeats: int = 3,
    batch_step: float | None = None,
) -> dict[str, float]:
    """Best-of-``repeats`` timing of one reference workload.

    The minimum over repeats is the standard noise-robust estimator for
    deterministic code; both the scheduler-core seconds and the full
    simulation wall seconds come from the same (best) repeat.
    """
    program = cholesky_program(n_tiles, tile_size)
    machine = intel_v100(gpu_streams=1)
    platform = machine.platform()
    pm = AnalyticalPerfModel(machine.calibration())
    best: dict[str, float] | None = None
    for _ in range(max(1, repeats)):
        sched = make_scheduler(scheduler_name)
        totals = instrument_scheduler(sched)
        sim = Simulator(platform, sched, pm, seed=0, batch_step=batch_step)
        t0 = time.perf_counter()
        res = sim.run(program)
        wall = time.perf_counter() - t0
        sample = {
            "sched_core_s": totals["seconds"],
            "sched_calls": totals["calls"],
            "wall_s": wall,
            "n_tasks": float(res.n_tasks),
            "tasks_per_s": res.n_tasks / wall if wall > 0 else 0.0,
            "makespan_us": res.makespan,
        }
        if res.batch_stats is not None:
            sample["batch_step"] = float(batch_step or 0.0)
            sample["mean_batch"] = res.batch_stats["mean_batch"]
            sample["n_flushes"] = res.batch_stats["n_flushes"]
        if best is None or sample["sched_core_s"] < best["sched_core_s"]:
            best = sample
    assert best is not None
    return best


def run_baseline(repeats: int = 3) -> dict:
    """Measure every reference workload; returns the JSON document."""
    workloads = {}
    for name, (sched, n_tiles, tile, batch_step) in BASELINE_WORKLOADS.items():
        workloads[name] = measure_workload(
            sched, n_tiles, tile, repeats=repeats, batch_step=batch_step
        )
    return {
        "schema": 2,
        "python": sys.version.split()[0],
        "workloads": workloads,
    }


def check_against(baseline: dict, measured: dict, fail_under: float | None) -> int:
    """Compare a fresh measurement to the recorded baseline.

    Prints one line per workload with the scheduler-core speedup
    (baseline seconds / measured seconds — higher is better). Returns 1
    when any workload's simulated makespan differs from the recorded one
    (the simulation is deterministic, so any drift is a behaviour
    change), or when ``fail_under`` is given and any workload's speedup
    falls below it. Without ``fail_under`` the timings only warn.
    """
    code = 0
    for name, base in baseline.get("workloads", {}).items():
        now = measured["workloads"].get(name)
        if now is None:
            print(f"{name}: not measured (workload removed?)")
            continue
        speedup = base["sched_core_s"] / now["sched_core_s"] if now["sched_core_s"] else float("inf")
        wall_x = base["wall_s"] / now["wall_s"] if now["wall_s"] else float("inf")
        drift = ""
        if base.get("makespan_us") and base["makespan_us"] != now["makespan_us"]:
            drift = f"  [MAKESPAN DRIFT {base['makespan_us']:.3f} -> {now['makespan_us']:.3f}us]"
            code = 1
        print(
            f"{name}: sched-core {now['sched_core_s'] * 1e3:.1f} ms "
            f"(baseline {base['sched_core_s'] * 1e3:.1f} ms, speedup {speedup:.2f}x); "
            f"wall {wall_x:.2f}x{drift}"
        )
        if fail_under is not None and speedup < fail_under:
            print(f"{name}: REGRESSION — speedup {speedup:.2f}x < required {fail_under:.2f}x")
            code = 1
    return code


def main(argv=None) -> int:
    """Entry point of the record/check baseline workflow."""
    parser = argparse.ArgumentParser(description=__doc__)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", metavar="PATH", help="measure and write the baseline JSON")
    mode.add_argument(
        "--check",
        metavar="PATH",
        help="measure and compare against a baseline (exit 1 on makespan drift)",
    )
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats (best-of)")
    parser.add_argument(
        "--fail-under",
        type=float,
        default=None,
        metavar="X",
        help="with --check: exit 1 if any workload's sched-core speedup drops below X",
    )
    args = parser.parse_args(argv)
    doc = run_baseline(repeats=args.repeats)
    if args.record:
        Path(args.record).write_text(json.dumps(doc, indent=2) + "\n")
        for name, w in doc["workloads"].items():
            print(f"{name}: sched-core {w['sched_core_s'] * 1e3:.1f} ms, wall {w['wall_s'] * 1e3:.1f} ms")
        print(f"baseline written to {args.record}")
        return 0
    baseline = json.loads(Path(args.check).read_text())
    return check_against(baseline, doc, args.fail_under)


# -- pytest-benchmark guards -------------------------------------------------


def test_simulator_throughput_multiprio(benchmark):
    """Tasks simulated per second under MultiPrio."""
    n_tiles = max(8, int(14 * bench_scale()))
    program = cholesky_program(n_tiles, 512)
    machine = small_hetero(n_cpus=6, n_gpus=2, gpu_streams=2)
    pm = AnalyticalPerfModel(machine.calibration())
    platform = machine.platform()

    def run():
        sim = Simulator(platform, make_scheduler("multiprio"), pm, seed=0)
        return sim.run(program).n_tasks

    n = benchmark(run)
    assert n == len(program)


def test_simulator_throughput_dmdas(benchmark):
    n_tiles = max(8, int(14 * bench_scale()))
    program = cholesky_program(n_tiles, 512)
    machine = small_hetero(n_cpus=6, n_gpus=2, gpu_streams=2)
    pm = AnalyticalPerfModel(machine.calibration())
    platform = machine.platform()

    def run():
        sim = Simulator(platform, make_scheduler("dmdas"), pm, seed=0)
        return sim.run(program).n_tasks

    n = benchmark(run)
    assert n == len(program)


def test_heap_insert_pop_throughput(benchmark):
    """Raw binary-heap churn: 5k inserts + 5k best/remove."""
    rng = make_rng(1)
    gains = rng.random(5000)
    prios = rng.random(5000)
    tasks = []
    for i in range(5000):
        t = Task(i, "k", implementations=("cpu",))
        t.state = TaskState.READY
        tasks.append(t)

    def run():
        heap = TaskHeap()
        for t, g, p in zip(tasks, gains, prios):
            heap.insert(t, float(g), float(p))
        drained = 0
        while len(heap):
            heap.remove(heap.best())
            drained += 1
        return drained

    assert benchmark(run) == 5000


if __name__ == "__main__":  # pragma: no cover - exercised via CI perf-smoke
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    sys.exit(main())
