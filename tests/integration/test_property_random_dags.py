"""Property-based integration tests: random STF programs, every scheduler.

Hypothesis generates random sequences of task submissions (random access
modes over a small pool of handles, random flops, random implementation
sets); for each generated program we check that the STF inference gives a
valid DAG and that schedulers produce feasible schedules on a
heterogeneous platform.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.validation import check_schedule
from repro.platform.machines import small_hetero
from repro.runtime.dag import critical_path_length, validate_dag
from repro.runtime.engine import Simulator
from repro.runtime.perfmodel import AnalyticalPerfModel
from repro.runtime.stf import TaskFlow
from repro.runtime.task import AccessMode
from repro.schedulers.registry import make_scheduler
from tests.conftest import trace_of

MODES = [AccessMode.R, AccessMode.W, AccessMode.RW, AccessMode.COMMUTE]
IMPLS = [("cpu",), ("cuda",), ("cpu", "cuda")]

submission = st.tuples(
    st.lists(  # accesses: (handle index, mode index), distinct handles
        st.tuples(st.integers(0, 7), st.integers(0, 3)),
        min_size=1,
        max_size=4,
        unique_by=lambda t: t[0],
    ),
    st.sampled_from(IMPLS),
    st.floats(min_value=0.0, max_value=1e9),
)

programs = st.lists(submission, min_size=1, max_size=40)


def build_program(submissions):
    flow = TaskFlow("random")
    handles = [flow.data(1024 * (i + 1), label=f"h{i}") for i in range(8)]
    for accesses, impls, flops in submissions:
        flow.submit(
            "kernel",
            [(handles[h], MODES[m]) for h, m in accesses],
            flops=flops,
            implementations=impls,
        )
    return flow.program()


@given(programs)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_stf_always_produces_valid_dag(submissions):
    program = build_program(submissions)
    validate_dag(program.tasks)


@given(programs)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@pytest.mark.parametrize("scheduler", ["multiprio", "dmdas", "heteroprio", "lws", "eager"])
def test_schedulers_produce_feasible_schedules(scheduler, submissions):
    program = build_program(submissions)
    machine = small_hetero(n_cpus=3, n_gpus=1, gpu_streams=2)
    pm = AnalyticalPerfModel(machine.calibration())
    sim = Simulator(
        machine.platform(), make_scheduler(scheduler), pm, seed=0,
        record_level="tasks",
    )
    res = sim.run(program)
    check_schedule(program, trace_of(sim, res), sim.platform.workers)
    # Makespan can never beat the communication-free critical path.
    cp = critical_path_length(
        program.tasks,
        lambda t: min(pm.estimate(t, a) for a in ("cpu", "cuda") if t.can_exec(a)),
    )
    assert res.makespan >= cp - 1e-6


@given(programs)
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_multiprio_stats_consistent(submissions):
    """MultiPrio must never report negative counters, and every run on a
    heterogeneous machine must terminate without forced pops on these
    small graphs."""
    program = build_program(submissions)
    machine = small_hetero(n_cpus=2, n_gpus=1)
    sim = Simulator(
        machine.platform(),
        make_scheduler("multiprio"),
        AnalyticalPerfModel(machine.calibration()),
        seed=1,
    )
    res = sim.run(program)
    assert all(v >= 0 for v in res.scheduler_stats.values())
