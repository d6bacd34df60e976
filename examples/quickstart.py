#!/usr/bin/env python
"""Quickstart: build a task graph, run it under three schedulers, compare.

Demonstrates the public API in ~40 lines:

* declare data handles and submit tasks through the STF front-end
  (dependencies are inferred from the access modes);
* run everything through :class:`repro.SimSpec` — one spec of
  (machine, scheduler, options), one ``run(program)`` call to a result;
* tune a scheduler via registry parameters (``sched_params``).

Run:  python examples/quickstart.py
"""

from repro import AccessMode, SimConfig, SimSpec, TaskFlow
from repro.platform import small_hetero
from repro.utils.units import time_human

# A toy blocked "stencil + reduce" pipeline: 8 independent chains that
# meet in one final reduction.
N_CHAINS, CHAIN_LEN, BLOCK = 8, 6, 1 << 20

flow = TaskFlow("quickstart")
blocks = [flow.data(8 * BLOCK, label=f"block{i}") for i in range(N_CHAINS)]
result = flow.data(8 * BLOCK, label="result")

for i, block in enumerate(blocks):
    flow.submit("init", [(block, AccessMode.W)], flops=1e6, implementations=("cpu",))
    for step in range(CHAIN_LEN):
        flow.submit(
            "stencil",
            [(block, AccessMode.RW)],
            flops=4e8,
            implementations=("cpu", "cuda"),
            tag=(i, step),
        )
reduce_accesses = [(b, AccessMode.R) for b in blocks] + [(result, AccessMode.W)]
flow.submit("reduce", reduce_accesses, flops=5e7, implementations=("cpu",))
program = flow.program()
print(f"program: {len(program)} tasks, {program.n_edges} dependency edges")

machine = small_hetero(n_cpus=6, n_gpus=1, gpu_streams=2)
for scheduler_name in ("multiprio", "dmdas", "eager"):
    res = SimSpec(machine, scheduler_name, seed=42).run(program)
    print(
        f"{scheduler_name:10s} makespan = {time_human(res.makespan):>10}   "
        f"{res.gflops:7.1f} GFlop/s   "
        f"data moved = {res.bytes_transferred / 2**20:.1f} MiB"
    )

# Registry names identify scheduler *families*: sched_params selects a
# member. A SimConfig bundles options for reuse across specs.
cfg = SimConfig(seed=42, sched_params={"locality_n": 5, "locality_eps": 0.1})
res = SimSpec(machine, "multiprio", config=cfg).run(program)
print(f"multiprio (top-5 locality window, eps=0.1): "
      f"makespan = {time_human(res.makespan)}")
