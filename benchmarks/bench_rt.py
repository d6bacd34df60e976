"""Real-time machinery bench: cost of overheads, resources, deadlines.

No paper counterpart — this guards the real-time scenario pack around
the engine. It measures the wall-clock cost of the per-decision gates
(a zero-cost :class:`SchedOverheadModel` and an idle
:class:`ResourceProtocol` against a plain run of the same stream — both
must stay cheap because they sit on the engine's hot path), and the
*simulated* effect of charged overheads: per-decision costs inflate the
makespan, and batched scheduling amortizes them (fewer, cheaper
decisions per task), so batching wins on the simulated clock — not just
on the host's.

Standalone (the CI perf-smoke entry, warn-only)::

    python -m benchmarks.bench_rt --json bench_rt_ci.json
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from benchmarks.conftest import bench_scale
from repro.api import SimConfig, SimSpec
from repro.experiments.rt_sweep import (
    format_rt_experiment,
    rt_workload,
    run_rt_experiment,
)
from repro.runtime.overhead import SchedOverheadModel
from repro.runtime.resources import ResourceProtocol

#: A deliberately coarse per-decision cost (µs) so the single virtual
#: sched core saturates at bench scale and the simulated inflation is
#: visible; ``batch_task_us`` is 5x cheaper than a per-event push, the
#: amortization batching is meant to buy.
CHARGED = SchedOverheadModel(push_us=50.0, pop_us=25.0, flush_us=100.0,
                             batch_task_us=10.0)


def _stream(n_jobs: int, seed: int = 0, rate: float = 300.0):
    return rt_workload(
        rate_jobs_per_s=rate, n_tenants=4, n_jobs=n_jobs,
        deadline_us=10_000.0, seed=seed,
    )


def _run(stream, **cfg_kwargs):
    return SimSpec(
        "small-hetero", "multiprio",
        config=SimConfig(**cfg_kwargs), isolated_baseline=False,
    ).run_stream(stream)


def measure_gates(n_jobs: int, repeats: int = 3) -> dict:
    """Best-of-``repeats`` wall times: plain vs the no-op rt gates.

    The zero-cost overhead model and the idle resource protocol are
    bit-identical to a plain run by construction (the ``rt`` family of
    ``repro check`` proves it); here we price the gate itself.
    """
    stream = _stream(n_jobs)
    n_tasks = stream.n_tasks

    def best_of(**cfg_kwargs) -> float:
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            _run(stream, **cfg_kwargs)
            best = min(best, time.perf_counter() - t0)
        return best

    plain_s = best_of()
    overhead_s = best_of(overhead=SchedOverheadModel())
    resources_s = best_of(resources=ResourceProtocol())
    return {
        "n_jobs": n_jobs,
        "n_tasks": n_tasks,
        "plain_s": plain_s,
        "free_overhead_s": overhead_s,
        "idle_resources_s": resources_s,
        "overhead_gate_frac":
            (overhead_s - plain_s) / plain_s if plain_s else 0.0,
        "resources_gate_frac":
            (resources_s - plain_s) / plain_s if plain_s else 0.0,
        "tasks_per_s": n_tasks / plain_s,
    }


def measure_charged(n_jobs: int) -> dict:
    """Simulated effect of charged overheads, per-event vs batched.

    Reports the makespan inflation a per-decision cost causes and how
    much of it batching claws back (charged scheduler time per task
    drops because a flushed batch pays ``flush + n x batch_task``
    instead of ``n x push``). Uses a denser arrival stream than the
    gate measurements: the win only shows on the simulated clock once
    the virtual sched core is the bottleneck, and sparse arrivals make
    batches too small for the flush cost to amortize.
    """
    stream = _stream(n_jobs, rate=1500.0)
    plain = _run(stream)
    per_event = _run(stream, overhead=CHARGED)
    batched = _run(stream, overhead=CHARGED, batch_step=500.0,
                   batch_drain_on_idle=False)
    pe_stats = per_event.sim.rt_stats or {}
    b_stats = batched.sim.rt_stats or {}
    return {
        "n_jobs": n_jobs,
        "n_tasks": stream.n_tasks,
        "plain_makespan_us": plain.makespan_us,
        "per_event_makespan_us": per_event.makespan_us,
        "batched_makespan_us": batched.makespan_us,
        "per_event_inflation":
            per_event.makespan_us / plain.makespan_us,
        "batched_inflation": batched.makespan_us / plain.makespan_us,
        "per_event_charged_us": pe_stats.get("overhead_charged_us", 0.0),
        "batched_charged_us": b_stats.get("overhead_charged_us", 0.0),
    }


def main(argv=None) -> int:
    """Measure and optionally write the JSON doc (always exit 0: CI
    treats rt machinery cost as warn-only)."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", metavar="PATH", help="write measurements to PATH")
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats (best-of)")
    args = parser.parse_args(argv)
    doc = {"gates": {}, "charged": {}}
    for n_jobs in (8, 24):
        g = measure_gates(n_jobs, repeats=args.repeats)
        doc["gates"][f"rt{n_jobs}"] = g
        print(
            f"rt{n_jobs}: {g['n_tasks']} tasks, plain {g['plain_s'] * 1e3:.1f} ms, "
            f"overhead gate {g['overhead_gate_frac'] * 100:+.1f}%, "
            f"resource gate {g['resources_gate_frac'] * 100:+.1f}% "
            f"({g['tasks_per_s']:.0f} tasks/s)"
        )
    c = measure_charged(24)
    doc["charged"]["rt24"] = c
    print(
        f"charged rt24: makespan x{c['per_event_inflation']:.3f} per-event "
        f"vs x{c['batched_inflation']:.3f} batched "
        f"(charged {c['per_event_charged_us']:.0f} vs "
        f"{c['batched_charged_us']:.0f} us)"
    )
    if args.json:
        Path(args.json).write_text(json.dumps(doc, indent=2) + "\n")
        print(f"measurements written to {args.json}")
    return 0


# -- pytest-benchmark guards -------------------------------------------------


def test_rt_gate_throughput(benchmark):
    """Tasks per wall-clock second with the overhead gate enabled."""
    n_jobs = max(4, int(8 * bench_scale()))
    stream = _stream(n_jobs)

    def run():
        res = _run(stream, overhead=SchedOverheadModel())
        return len(res.jobs)

    assert benchmark(run) == n_jobs


def test_charged_overheads_batching_wins_simulated(report):
    """Charged per-decision costs must inflate the simulated makespan,
    and batching must claw back part of the inflation *on the simulated
    clock* (cheaper per-task decisions, not just fewer host cycles)."""
    # Floor at 16 jobs: shorter streams flush too few batches for the
    # amortization to beat the batching-window holding latency.
    doc = measure_charged(max(16, int(16 * bench_scale())))
    assert doc["per_event_charged_us"] > 0.0
    assert doc["per_event_inflation"] > 1.0
    assert doc["batched_inflation"] < doc["per_event_inflation"]
    assert doc["batched_charged_us"] < doc["per_event_charged_us"]
    report(json.dumps(doc, indent=2), "rt_charged")


def test_rt_sweep(benchmark, report):
    """The rt experiment end to end (reduced grid): the deadline-aware
    MultiPrio must not miss more than the deadline-oblivious one under
    overload."""
    result = benchmark.pedantic(
        run_rt_experiment,
        kwargs={
            "multipliers": (1.0, 2.0),
            "schedulers": ("multiprio", "multiprio-deadline"),
            "n_tenants": 4,
            "n_jobs": max(8, int(16 * bench_scale())),
        },
        rounds=1,
        iterations=1,
    )
    miss = {
        (row.scheduler, row.multiplier): row.miss_rate for row in result.rows
    }
    assert miss[("multiprio-deadline", 2.0)] <= miss[("multiprio", 2.0)]
    for row in result.rows:
        assert 0.0 <= row.miss_rate <= 1.0
        assert row.makespan_us > 0.0
    report(format_rt_experiment(result), "rt_sweep")


if __name__ == "__main__":
    raise SystemExit(main())
