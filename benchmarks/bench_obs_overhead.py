"""Observability overhead: the price of turning recording on.

The zero-cost contract itself (``record_level="off"`` takes the same
decisions, recording never perturbs results) is pinned by the goldens in
``tests/obs/test_obs_goldens.py``, which tier-1 runs.
"""

from benchmarks.conftest import bench_scale
from repro.apps.dense import cholesky_program
from repro.platform.machines import small_hetero
from repro.runtime.engine import Simulator
from repro.runtime.perfmodel import AnalyticalPerfModel
from repro.schedulers.registry import make_scheduler


def _sim(scheduler_name: str, record_level: str) -> Simulator:
    machine = small_hetero(n_cpus=6, n_gpus=2, gpu_streams=2)
    return Simulator(
        machine.platform(),
        make_scheduler(scheduler_name),
        AnalyticalPerfModel(machine.calibration()),
        seed=0,
        record_level=record_level,
    )


def test_obs_overhead_disabled(benchmark):
    """Throughput with observability off (the default everyone pays)."""
    n_tiles = max(8, int(12 * bench_scale()))
    program = cholesky_program(n_tiles, 512)

    def run():
        return _sim("multiprio", "off").run(program).n_tasks

    assert benchmark(run) == len(program)


def test_obs_overhead_decisions(benchmark):
    """Throughput at the heaviest record level (full decision provenance)."""
    n_tiles = max(8, int(12 * bench_scale()))
    program = cholesky_program(n_tiles, 512)

    def run():
        return _sim("multiprio", "decisions").run(program).n_tasks

    assert benchmark(run) == len(program)
