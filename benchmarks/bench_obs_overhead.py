"""Observability overhead guard: disabled must be free, enabled cheap.

The zero-cost contract: with ``record_level="off"`` the engine takes the
exact same decisions as a build without the observability subsystem.
The golden constants below were captured on the pre-observability
engine (seed 0, Cholesky 10x512 on small_hetero 6 CPU + 2x2 GPU
streams); any drift means an emit point leaked into the simulation.
The timed benchmarks bound the price of turning recording on.
"""

from benchmarks.conftest import bench_scale
from repro.apps.dense import cholesky_program
from repro.platform.machines import small_hetero
from repro.runtime.engine import Simulator
from repro.runtime.perfmodel import AnalyticalPerfModel
from repro.schedulers.registry import make_scheduler

# Captured on the engine at commit 61935fb, before repro.obs existed.
GOLDEN_PRE_OBS = {
    "multiprio": (25477.046516434653, 387973120),
    "dmdas": (22424.351674920632, 876609536),
}


def _sim(scheduler_name: str, record_level: str) -> Simulator:
    machine = small_hetero(n_cpus=6, n_gpus=2, gpu_streams=2)
    return Simulator(
        machine.platform(),
        make_scheduler(scheduler_name),
        AnalyticalPerfModel(machine.calibration()),
        seed=0,
        record_level=record_level,
    )


def test_disabled_obs_is_bit_identical_to_pre_obs_engine():
    """record_level="off" reproduces the pre-PR engine exactly."""
    program = cholesky_program(10, 512)
    for name, (makespan, nbytes) in GOLDEN_PRE_OBS.items():
        res = _sim(name, "off").run(program)
        assert res.makespan == makespan, (
            f"{name}: obs-disabled makespan drifted from the "
            f"pre-observability engine ({res.makespan} != {makespan})"
        )
        assert res.bytes_transferred == nbytes, name
        assert res.events is None and res.metrics is None


def test_enabled_obs_does_not_perturb_results():
    """Recording changes what is *observed*, never what is *simulated*."""
    program = cholesky_program(10, 512)
    for name, (makespan, nbytes) in GOLDEN_PRE_OBS.items():
        for level in ("tasks", "decisions"):
            res = _sim(name, level).run(program)
            assert res.makespan == makespan, (name, level)
            assert res.bytes_transferred == nbytes, (name, level)


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
