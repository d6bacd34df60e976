#!/usr/bin/env python
"""Dense Cholesky on the paper's two platforms (Fig. 5 workload).

Builds the tiled Cholesky DAG the CHAMELEON library would submit, runs
it on the Intel-V100 and AMD-A100 machine models under every relevant
scheduler, and prints a comparison table — including the ASCII Gantt of
the winner so you can see the GPU/CPU split.

Run:  python examples/dense_cholesky.py [n_tiles] [tile_size]
"""

import sys

from repro import AnalyticalPerfModel, Simulator, make_scheduler
from repro.apps.dense import cholesky_program
from repro.experiments.reporting import format_table
from repro.obs import trace_from_events
from repro.platform import amd_a100, intel_v100

n_tiles = int(sys.argv[1]) if len(sys.argv) > 1 else 16
tile_size = int(sys.argv[2]) if len(sys.argv) > 2 else 960

program = cholesky_program(n_tiles, tile_size)
print(
    f"Cholesky {n_tiles}x{n_tiles} tiles of {tile_size}: "
    f"{len(program)} tasks, {program.total_flops() / 1e12:.2f} Tflop\n"
)

rows = []
best = {}
for machine in (intel_v100(gpu_streams=1), amd_a100(gpu_streams=1)):
    for sched in ("multiprio", "dmdas", "heteroprio", "lws"):
        sim = Simulator(
            machine.platform(),
            make_scheduler(sched),
            AnalyticalPerfModel(machine.calibration()),
            seed=0,
            record_level="tasks",
        )
        res = sim.run(program)
        rows.append(
            [
                machine.name,
                sched,
                f"{res.makespan / 1e3:.1f}",
                f"{res.gflops:.0f}",
                f"{res.idle_frac_by_arch.get('cuda', 0) * 100:.0f}%",
                f"{res.bytes_transferred / 2**30:.2f}",
            ]
        )
        key = machine.name
        if key not in best or res.makespan < best[key][1].makespan:
            best[key] = (sched, res, sim.platform.workers)

print(
    format_table(
        ["machine", "scheduler", "makespan ms", "GFlop/s", "GPU idle", "GiB moved"],
        rows,
        title="Tiled Cholesky (potrf), expert priorities available to dmdas",
    )
)

name, res, workers = best["intel-v100"]
print(f"\nGantt of the intel-v100 winner ({name}):")
print(trace_from_events(res.events, workers).gantt_ascii(width=100))
