"""Zero-cost contract of observability, pinned to golden results.

With ``record_level="off"`` the engine takes the exact same decisions as
a build without the observability subsystem, and turning recording on
changes what is *observed*, never what is *simulated*. The goldens are
Cholesky 10x512 on small_hetero (6 CPUs + 2 GPUs x 2 streams), seed 0;
any drift means an emit point leaked into the simulation.
"""

import pytest

from repro.apps.dense import cholesky_program
from repro.platform.machines import small_hetero
from repro.runtime.engine import Simulator
from repro.runtime.perfmodel import AnalyticalPerfModel
from repro.schedulers.registry import make_scheduler

# (makespan in µs, bytes transferred) per scheduler.
GOLDEN = {
    # Captured on the engine at commit 61935fb, before repro.obs existed.
    "multiprio": (25477.046516434653, 387973120),
    # Re-recorded at commit d642c7e. The pre-obs value (22424.351674920632
    # µs, 876,609,536 B) went stale at commit 2f4d6d7, whose Link.reserve
    # fix stopped a link from being double-booked; dmdas's transfers moved
    # with it, while multiprio's did not.
    "dmdas": (22005.249451916963, 591396864),
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


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_disabled_obs_is_bit_identical_to_pre_obs_engine(name):
    """record_level="off" reproduces the golden result exactly."""
    makespan, nbytes = GOLDEN[name]
    res = _sim(name, "off").run(cholesky_program(10, 512))
    assert res.makespan == makespan, (
        f"{name}: obs-disabled makespan drifted ({res.makespan} != {makespan})"
    )
    assert res.bytes_transferred == nbytes
    assert res.events is None and res.metrics is None


@pytest.mark.parametrize("level", ["tasks", "decisions"])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_enabled_obs_does_not_perturb_results(name, level):
    """Recording changes what is *observed*, never what is *simulated*."""
    makespan, nbytes = GOLDEN[name]
    res = _sim(name, level).run(cholesky_program(10, 512))
    assert res.makespan == makespan
    assert res.bytes_transferred == nbytes
