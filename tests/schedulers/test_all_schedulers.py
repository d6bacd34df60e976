"""Cross-cutting scheduler tests: every policy yields feasible schedules."""

import pytest

from repro.analysis.validation import check_schedule
from repro.runtime.engine import Simulator
from repro.runtime.perfmodel import AnalyticalPerfModel
from repro.runtime.stf import TaskFlow
from repro.runtime.task import AccessMode
from repro.schedulers.registry import make_scheduler, scheduler_names
from tests.conftest import make_chain_program, make_fork_join_program, trace_of

ALL = scheduler_names()


@pytest.mark.parametrize("name", ALL)
def test_fork_join_is_feasible(name, hetero_machine):
    program = make_fork_join_program(width=12)
    sim = Simulator(
        hetero_machine.platform(),
        make_scheduler(name),
        AnalyticalPerfModel(hetero_machine.calibration()),
        seed=1,
        record_level="tasks",
    )
    res = sim.run(program)
    check_schedule(program, trace_of(sim, res), sim.platform.workers)


@pytest.mark.parametrize("name", ALL)
def test_chain_is_feasible(name, hetero_machine):
    program = make_chain_program(n=8)
    sim = Simulator(
        hetero_machine.platform(),
        make_scheduler(name),
        AnalyticalPerfModel(hetero_machine.calibration()),
        seed=1,
        record_level="tasks",
    )
    res = sim.run(program)
    check_schedule(program, trace_of(sim, res), sim.platform.workers)


@pytest.mark.parametrize("name", ALL)
def test_arch_restricted_tasks_land_correctly(name, two_gpu_machine):
    """CPU-only and GPU-only tasks must run on the right units under
    every policy."""
    flow = TaskFlow()
    handles = [flow.data(1024) for _ in range(12)]
    for i, h in enumerate(handles):
        impls = ("cpu",) if i % 3 == 0 else ("cuda",) if i % 3 == 1 else ("cpu", "cuda")
        flow.submit("k", [(h, AccessMode.W)], flops=1e7, implementations=impls)
    program = flow.program()
    sim = Simulator(
        two_gpu_machine.platform(),
        make_scheduler(name),
        AnalyticalPerfModel(two_gpu_machine.calibration()),
        seed=2,
        record_level="tasks",
    )
    res = sim.run(program)
    check_schedule(program, trace_of(sim, res), sim.platform.workers)


@pytest.mark.parametrize("name", ALL)
def test_cpu_only_platform(name, cpu_machine):
    """Every policy must work on a homogeneous machine (|A| = 1)."""
    program = make_fork_join_program(width=6)
    sim = Simulator(
        cpu_machine.platform(),
        make_scheduler(name),
        AnalyticalPerfModel(cpu_machine.calibration()),
        seed=3,
        record_level="tasks",
    )
    res = sim.run(program)
    check_schedule(program, trace_of(sim, res), sim.platform.workers)


@pytest.mark.parametrize("name", ["multiprio", "dmdas", "heteroprio", "dm", "dmda"])
def test_hetero_aware_beats_single_worker_bound(name, hetero_machine):
    """Heterogeneity-aware policies must beat the all-on-one-CPU bound on
    an embarrassingly parallel GPU-friendly workload."""
    program = make_fork_join_program(width=24, flops=5e8)
    pm = AnalyticalPerfModel(hetero_machine.calibration())
    serial_cpu = sum(pm.estimate(t, "cpu") for t in program.tasks)
    sim = Simulator(hetero_machine.platform(), make_scheduler(name), pm, seed=0)
    res = sim.run(program)
    assert res.makespan < serial_cpu


def test_registry_rejects_unknown():
    from repro.utils.validation import ValidationError

    with pytest.raises(ValidationError, match="unknown scheduler"):
        make_scheduler("nope")


def test_registry_rejects_duplicate_registration():
    from repro.schedulers.registry import register_scheduler
    from repro.utils.validation import ValidationError

    with pytest.raises(ValidationError, match="already registered"):
        register_scheduler("eager", lambda: None)  # type: ignore[arg-type]


def test_registry_lists_paper_schedulers():
    names = scheduler_names()
    for required in ("multiprio", "dmdas", "heteroprio", "lws", "eager"):
        assert required in names
