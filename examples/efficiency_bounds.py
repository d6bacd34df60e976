#!/usr/bin/env python
"""Scheduling efficiency against provable lower bounds.

For one Cholesky instance, computes the critical-path / work / exclusive
lower bounds and scores every scheduler's makespan against the tightest
one — the sanity lens that separates "scheduler A beat scheduler B" from
"both are far from what the platform allows". Renders an ASCII bar chart.

Run:  python examples/efficiency_bounds.py [n_tiles] [tile_size]
"""

import sys

from repro import AnalyticalPerfModel, Simulator, make_scheduler
from repro.analysis import efficiency_report, hbar_chart, makespan_bounds
from repro.apps.dense import cholesky_program
from repro.platform import small_hetero

n_tiles = int(sys.argv[1]) if len(sys.argv) > 1 else 12
tile_size = int(sys.argv[2]) if len(sys.argv) > 2 else 768

machine = small_hetero(n_cpus=6, n_gpus=1, gpu_streams=2)
program = cholesky_program(n_tiles, tile_size)
pm = AnalyticalPerfModel(machine.calibration())

bounds = makespan_bounds(program, machine.platform(), pm)
print(
    f"lower bounds: critical path {bounds.critical_path_us / 1e3:.1f} ms, "
    f"work {bounds.work_bound_us / 1e3:.1f} ms, "
    f"exclusive {bounds.exclusive_work_bound_us / 1e3:.1f} ms "
    f"-> best {bounds.best_us / 1e3:.1f} ms\n"
)

efficiencies = {}
for name in ("static-heft", "multiprio", "dmdas", "heteroprio", "lws", "eager"):
    sim = Simulator(machine.platform(), make_scheduler(name), pm, seed=0)
    res = sim.run(program)
    report = efficiency_report(res, program, machine.platform(), pm)
    efficiencies[name] = report["efficiency"]
    print(f"{name:12s} makespan {res.makespan / 1e3:8.1f} ms   "
          f"efficiency {report['efficiency'] * 100:5.1f}%")

print()
print(hbar_chart(efficiencies, title="efficiency vs tightest lower bound", width=46))
