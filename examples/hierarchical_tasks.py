#!/usr/bin/env python
"""Hierarchical tasks (the paper's Section VII future work).

Builds chains of coarse "bubbles" where the large ones expand into
split / fine-compute / merge subgraphs — the mixed-granularity DAG shape
StarPU's hierarchical tasks produce — and compares the schedulers. The
paper's expectation: this workload class favours MultiPrio over Dmdas
for the same reasons sparse QR does.

Run:  python examples/hierarchical_tasks.py
"""

from repro import AnalyticalPerfModel, Simulator, make_scheduler
from repro.experiments.reporting import format_table
from repro.extensions.hierarchical import BubbleSpec, HierarchicalFlow
from repro.platform import intel_v100
from repro.runtime.dag import task_type_histogram
from repro.runtime.task import AccessMode
from repro.utils.rng import make_rng

rng = make_rng(3)
hf = HierarchicalFlow(BubbleSpec(threshold_flops=1.2e9, partitions=6))
for chain in range(24):
    data = hf.data(8 << 20, label=f"chain{chain}")
    hf.submit_bubble("seed", [(data, AccessMode.W)], flops=1e3)
    for step in range(5):
        flops = float(rng.choice([3e8, 2e9, 6e9], p=[0.5, 0.3, 0.2]))
        hf.submit_bubble("work", [(data, AccessMode.RW)], flops=flops,
                         tag=(chain, step))

program = hf.program()
print(
    f"{hf.n_coarse} coarse + {hf.n_expanded} expanded bubbles -> "
    f"{len(program)} tasks {task_type_histogram(program.tasks)}\n"
)

machine = intel_v100(gpu_streams=2)
rows = []
for name in ("multiprio", "dmdas", "heteroprio", "eager"):
    sim = Simulator(
        machine.platform(),
        make_scheduler(name),
        AnalyticalPerfModel(machine.calibration(), noise_sigma=0.15),
        seed=0,
    )
    res = sim.run(program)
    rows.append(
        [
            name,
            f"{res.makespan / 1e3:.1f}",
            f"{res.idle_frac_by_arch.get('cpu', 0) * 100:.0f}%",
            f"{res.idle_frac_by_arch.get('cuda', 0) * 100:.0f}%",
        ]
    )

print(
    format_table(
        ["scheduler", "makespan ms", "CPU idle", "GPU idle"],
        rows,
        title="Hierarchical bubbles on intel-v100 (mixed granularity)",
    )
)
