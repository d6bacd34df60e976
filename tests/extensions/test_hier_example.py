"""Hierarchical workload end-to-end: mixed granularity helps MultiPrio.

The paper's Section VII expects MultiPrio to beat Dmdas on hierarchical
workloads ("we expect better results than Dmdas when scheduling
hierarchical tasks"). This test builds a bubble chain whose expansions
produce the coarse-GPU + fine-CPU mix and checks MultiPrio lands within
a competitive envelope of the best policy (a weak but meaningful smoke
check; the quantitative study is the examples/bench layer's job).
"""

from repro.extensions.hierarchical import BubbleSpec, HierarchicalFlow
from repro.platform.machines import small_hetero
from repro.runtime.engine import Simulator
from repro.runtime.perfmodel import AnalyticalPerfModel
from repro.runtime.task import AccessMode
from repro.schedulers.registry import make_scheduler
from repro.utils.rng import make_rng


def hierarchical_workload(n_chains=6, depth=4, seed=0):
    rng = make_rng(seed)
    hf = HierarchicalFlow(BubbleSpec(threshold_flops=8e8, partitions=4))
    for c in range(n_chains):
        data = hf.data(4 << 20, label=f"chain{c}")
        hf.submit_bubble("seed", [(data, AccessMode.W)], flops=1e3)
        for d in range(depth):
            flops = float(rng.choice([2e8, 1.6e9, 3.2e9]))
            hf.submit_bubble("work", [(data, AccessMode.RW)], flops=flops, tag=(c, d))
    return hf


def test_mixed_granularity_end_to_end():
    hf = hierarchical_workload()
    program = hf.program()
    assert hf.n_expanded > 0 and hf.n_coarse > 0
    machine = small_hetero(n_cpus=6, n_gpus=1, gpu_streams=2)
    pm = AnalyticalPerfModel(machine.calibration())
    spans = {}
    for name in ("multiprio", "dmdas", "eager"):
        sim = Simulator(machine.platform(), make_scheduler(name), pm, seed=0)
        spans[name] = sim.run(program).makespan
    assert spans["multiprio"] <= 1.25 * min(spans.values())
    assert spans["multiprio"] < spans["eager"]
