"""Memory-pressure bench: the paper's getrf-at-scale mechanism.

The paper's Fig. 5 discussion attributes MultiPrio's +14% win on Intel
getrf beyond 100k to Dmdas "data transfer issues, likely related to GPU
memory limits or conflicts between prefetching and memory eviction".
Reaching a 16 GB V100's limit needs an ~80 GB working set; instead we
shrink the device memory below a simulation-sized LU's working set and
observe exactly that mechanism:

* Dmdas's push-time prefetches land far ahead of execution; under
  pressure the LRU evicts them before use, so tiles ping-pong (traffic
  roughly doubles, thousands of evictions) and the makespan degrades;
* MultiPrio fetches at pop time, just before use, and barely degrades —
  flipping the ranking to MultiPrio, as in the paper's large-getrf runs.
"""

from benchmarks.conftest import bench_scale
from repro.apps.dense import lu_program
from repro.experiments.reporting import format_table
from repro.platform.machines import intel_v100
from repro.runtime.engine import Simulator
from repro.runtime.perfmodel import AnalyticalPerfModel
from repro.schedulers.registry import make_scheduler


def test_memory_pressure_flips_getrf_ranking(benchmark, report):
    n_tiles = max(12, int(15 * bench_scale()))
    program = lu_program(n_tiles, 1280)

    def sweep():
        results = {}
        for label, capacity in (("16GB (ample)", 16 * 2**30), ("1GB (pressure)", 2**30)):
            machine = intel_v100(1, gpu_memory_bytes=capacity)
            for sched in ("dmdas", "multiprio"):
                sim = Simulator(
                    machine.platform(),
                    make_scheduler(sched),
                    AnalyticalPerfModel(machine.calibration(), noise_sigma=0.05),
                    seed=3,
                )
                res = sim.run(program)
                results[(label, sched)] = (
                    res.makespan,
                    res.bytes_transferred,
                    sim.platform.transfers.n_evictions,
                )
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [
        [mem, sched, f"{ms / 1e3:.0f}", f"{nbytes / 2**30:.1f}", evictions]
        for (mem, sched), (ms, nbytes, evictions) in results.items()
    ]
    report(
        format_table(
            ["GPU memory", "scheduler", "makespan ms", "GiB moved", "evictions"],
            rows,
            title=(
                f"Memory pressure on getrf ({n_tiles}x{n_tiles} tiles of 1280, "
                "intel-v100, 1 stream)"
            ),
        ),
        "memory_pressure",
    )

    ample_dm, _, ample_evic = results[("16GB (ample)", "dmdas")]
    tight_dm, tight_dm_bytes, tight_evic = results[("1GB (pressure)", "dmdas")]
    ample_mp, _, _ = results[("16GB (ample)", "multiprio")]
    tight_mp, _, _ = results[("1GB (pressure)", "multiprio")]

    assert ample_evic == 0
    assert tight_evic > 100  # the prefetch/eviction conflict
    assert tight_dm > 1.1 * ample_dm  # dmdas degrades under pressure
    assert tight_mp < 1.1 * ample_mp  # multiprio barely does
    assert tight_mp < tight_dm  # the paper's ranking flip
