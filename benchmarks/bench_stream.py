"""Stream throughput bench: wall-clock cost of the online workload layer.

No paper counterpart — this guards the machinery added around the
engine, not a figure. It measures how fast the simulator chews through
a merged multi-job stream (simulated tasks per wall-clock second, and
the merge overhead itself), so a regression in the release-by-clock
reveal loop or in :func:`repro.workload.merge.merge_stream` shows up as
a throughput drop.

Standalone (the CI perf-smoke entry, warn-only)::

    python -m benchmarks.bench_stream --json bench_stream_ci.json
"""

from __future__ import annotations

import argparse
import gc
import json
import time
from pathlib import Path

from benchmarks.conftest import bench_scale
from repro.api import SimConfig, SimSpec
from repro.apps.dense import cholesky_program, lu_program
from repro.experiments.stream_arrivals import (
    format_stream_experiment,
    run_stream_experiment,
)
from repro.runtime.stf import TaskFlow
from repro.runtime.task import AccessMode
from repro.schedulers.base import Scheduler
from repro.schedulers.multiprio import MultiPrio
from repro.schedulers.registry import register_scheduler
from repro.workload.merge import merge_stream
from repro.workload.stream import poisson_stream

#: The committed per-event stream-path throughput this PR started from
#: (``BENCH_engine.json`` @ 1e21360, workload ``cholesky16-multiprio``).
#: The batched million-task entry reports its speedup against this pin so
#: the ≥10x acceptance stays anchored to the pre-batching engine even
#: after ``BENCH_engine.json`` is re-recorded.
COMMITTED_PER_EVENT_TASKS_PER_S = 7758.2

#: Committed 1M-task setup rates this PR started from (measured at
#: e7b427b on the 50000-job light stream: 27.6 s to build the Poisson
#: stream, 32.8 s to merge it — the "~70 s before the first task runs"
#: the million-task target exposed). The light-stream entry reports its
#: setup speedups against these pins as tasks/s ratios, so the
#: comparison holds at CI scale too.
COMMITTED_BUILD_TASKS_PER_S = 36_200.0
COMMITTED_MERGE_TASKS_PER_S = 30_500.0

class _SeqPushMultiPrio(MultiPrio):
    """MultiPrio with the bulk ``push_batch`` override disabled (the
    base class's sequential per-task pushes) — the baseline the bulk
    insert path is measured against. Schedules bit-identically."""

    push_batch = Scheduler.push_batch


register_scheduler("multiprio-seqpush", _SeqPushMultiPrio, override=True)

#: Scheduler/engine variants measured by the light-stream entry:
#: name -> (scheduler, batch_step, batch_drain_on_idle).
#: ``multiprio-batch500`` exercises MultiPrio's bulk ``push_batch``
#: override, which runs push's per-task insert but clears the BRW and
#: miss memos once per batch and samples queue-depth gauges once per
#: touched node; ``multiprio-batch500-seqpush`` is the same engine
#: configuration with sequential pushes, isolating that saving.
LIGHT_VARIANTS: dict[str, tuple[str, float | None, bool]] = {
    "multiprio-per-event": ("multiprio", None, True),
    "multiprio-batch500": ("multiprio", 500.0, False),
    "multiprio-batch500-seqpush": ("multiprio-seqpush", 500.0, False),
    "multiqueue-per-event": ("multiqueue", None, True),
    "multiqueue-batch500": ("multiqueue", 500.0, False),
}


def _stream(n_jobs: int, rate: float = 120.0, seed: int = 0):
    return poisson_stream(
        [
            ("cholesky", lambda: cholesky_program(6, 512)),
            ("lu", lambda: lu_program(6, 512)),
        ],
        rate_jobs_per_s=rate,
        n_jobs=n_jobs,
        seed=seed,
        tenants=("tenant0", "tenant1"),
        name="bench",
    )


def measure_stream(n_jobs: int, repeats: int = 3) -> dict:
    """Best-of-``repeats`` wall times for merge and the full stream run."""
    stream = _stream(n_jobs)
    merge_s = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        merge_stream(stream)
        merge_s = min(merge_s, time.perf_counter() - t0)
    n_tasks = stream.n_tasks
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        res = SimSpec(
            "small-hetero", "multiprio", isolated_baseline=False
        ).run_stream(stream)
        best = min(best, time.perf_counter() - t0)
        assert len(res.jobs) == n_jobs
    return {
        "n_jobs": n_jobs,
        "n_tasks": n_tasks,
        "merge_s": merge_s,
        "wall_s": best,
        "tasks_per_s": n_tasks / best,
    }


def light_bag_program(n_tasks: int = 20):
    """One job of ``n_tasks`` independent light tasks (one 4 KB write each).

    The per-task work is deliberately tiny so the bench measures engine
    and scheduler overhead, not kernel simulation: this is the workload
    shape behind the ROADMAP's million-job target.
    """
    tf = TaskFlow("light")
    for i in range(n_tasks):
        h = tf.data(4096, label=f"d{i}")
        tf.submit(
            "light", [(h, AccessMode.W)], flops=1e6,
            implementations=("cpu", "cuda"),
        )
    return tf.program()


def _light_stream(n_jobs: int, rate: float = 2000.0, seed: int = 1):
    # 2000 jobs/s (40k tasks/s simulated) keeps small-hetero near but
    # under saturation, so ready queues stay bounded and the wall clock
    # measures per-task cost rather than heap growth under overload.
    return poisson_stream(
        [("light", lambda: light_bag_program(20))],
        rate_jobs_per_s=rate,
        n_jobs=n_jobs,
        seed=seed,
        name="light",
    )


def measure_light_stream(n_jobs: int, repeats: int = 2) -> dict:
    """Engine-run throughput over a merged light-task stream.

    Merges once, then times only ``Simulator.run`` (the engine resets
    runtime state, so the merged program is reused across repeats and
    variants — same convention as ``BENCH_engine.json``, which excludes
    program construction). The GC is frozen and disabled around the
    timed runs: a merged million-task graph otherwise triggers gen-2
    collections that get billed to whatever allocates during them.
    """
    t0 = time.perf_counter()
    stream = _light_stream(n_jobs)
    build_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    merged = merge_stream(stream)
    merge_s = time.perf_counter() - t0
    n_tasks = len(merged.tasks)
    doc: dict = {
        "n_jobs": n_jobs, "n_tasks": n_tasks,
        "build_s": build_s, "merge_s": merge_s,
        "build_speedup_vs_committed":
            (n_tasks / build_s) / COMMITTED_BUILD_TASKS_PER_S,
        "merge_speedup_vs_committed":
            (n_tasks / merge_s) / COMMITTED_MERGE_TASKS_PER_S,
        "variants": {},
    }
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        for name, (sched, batch_step, drain) in LIGHT_VARIANTS.items():
            cfg = SimConfig(batch_step=batch_step, batch_drain_on_idle=drain)
            best = None
            res = None
            for _ in range(max(1, repeats)):
                sim = SimSpec("small-hetero", sched, config=cfg).simulator()
                t0 = time.perf_counter()
                r = sim.run(merged)
                wall = time.perf_counter() - t0
                if best is None or wall < best:
                    best, res = wall, r
            assert best is not None and res is not None
            sample = {
                "wall_s": best,
                "tasks_per_s": n_tasks / best,
                "makespan_us": res.makespan,
                "speedup_vs_committed":
                    (n_tasks / best) / COMMITTED_PER_EVENT_TASKS_PER_S,
            }
            if res.batch_stats is not None:
                sample["batch"] = dict(res.batch_stats)
            doc["variants"][name] = sample
    finally:
        gc.enable()
        gc.unfreeze()
    return doc


def format_light_stream(doc: dict) -> str:
    lines = [
        f"light stream: {doc['n_tasks']} tasks "
        f"({doc['n_jobs']} jobs x 20), build {doc['build_s']:.2f} s "
        f"({doc['build_speedup_vs_committed']:.1f}x committed), merge "
        f"{doc['merge_s']:.2f} s "
        f"({doc['merge_speedup_vs_committed']:.1f}x committed)"
    ]
    for name, s in doc["variants"].items():
        batch = s.get("batch")
        extra = (
            f", mean batch {batch['mean_batch']:.1f} "
            f"({batch['n_flushes']:.0f} flushes)" if batch else ""
        )
        lines.append(
            f"  {name}: {s['tasks_per_s']:.0f} tasks/s "
            f"({s['speedup_vs_committed']:.1f}x committed per-event "
            f"baseline {COMMITTED_PER_EVENT_TASKS_PER_S:.0f}){extra}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    """Measure and optionally write the JSON doc (always exit 0: CI
    treats stream throughput as warn-only)."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", metavar="PATH", help="write measurements to PATH")
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats (best-of)")
    parser.add_argument(
        "--million",
        action="store_true",
        help="run the light stream at full scale (50000 jobs = 1M tasks); "
        "the default is a CI-sized slice scaled by REPRO_BENCH_SCALE",
    )
    args = parser.parse_args(argv)
    doc = {"workloads": {}}
    for n_jobs in (4, 12):
        m = measure_stream(n_jobs, repeats=args.repeats)
        doc["workloads"][f"poisson{n_jobs}"] = m
        print(
            f"poisson{n_jobs}: {m['n_tasks']} tasks, merge "
            f"{m['merge_s'] * 1e3:.1f} ms, run {m['wall_s'] * 1e3:.1f} ms "
            f"({m['tasks_per_s']:.0f} tasks/s)"
        )
    light_jobs = 50000 if args.million else max(250, int(1500 * bench_scale()))
    light = measure_light_stream(light_jobs, repeats=max(1, args.repeats - 1))
    doc["light_stream"] = light
    print(format_light_stream(light))
    if args.json:
        Path(args.json).write_text(json.dumps(doc, indent=2) + "\n")
        print(f"measurements written to {args.json}")
    return 0


# -- pytest-benchmark guards -------------------------------------------------


def test_stream_throughput(benchmark):
    """Simulated tasks per wall-clock second through the stream facade."""
    n_jobs = max(4, int(8 * bench_scale()))
    stream = _stream(n_jobs)

    def run():
        res = SimSpec(
            "small-hetero", "multiprio", isolated_baseline=False
        ).run_stream(stream)
        return len(res.jobs)

    assert benchmark(run) == n_jobs


def test_light_stream_batched_speedup(report):
    """The batched relaxed path must beat per-event MultiPrio on light
    streams, and its flushes must carry batch-size provenance."""
    doc = measure_light_stream(max(100, int(500 * bench_scale())), repeats=1)
    per_event = doc["variants"]["multiprio-per-event"]
    batched = doc["variants"]["multiqueue-batch500"]
    assert batched["tasks_per_s"] > per_event["tasks_per_s"]
    assert batched["batch"]["n_flushes"] > 0
    assert batched["batch"]["mean_batch"] >= 1.0
    report(format_light_stream(doc), "stream_light")


def test_stream_arrival_sweep(benchmark, report):
    """The arrival-rate experiment end to end (reduced grid)."""
    result = benchmark.pedantic(
        run_stream_experiment,
        kwargs={
            "rates": (40.0, 160.0),
            "schedulers": ("multiprio", "dmdas"),
            "n_jobs": max(4, int(6 * bench_scale())),
        },
        rounds=1,
        iterations=1,
    )
    for row in result.rows:
        assert row.makespan_us > 0.0
        assert 0.0 < row.fairness <= 1.0
        assert row.mean_slowdown >= 1.0 - 1e-9
    report(format_stream_experiment(result), "stream_arrivals")


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
