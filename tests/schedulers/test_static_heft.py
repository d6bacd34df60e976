"""Static HEFT reference scheduler tests."""

import pytest

from repro.analysis.validation import check_schedule
from repro.apps.dense import cholesky_program
from repro.runtime.engine import Simulator
from repro.runtime.perfmodel import AnalyticalPerfModel
from repro.schedulers.static_heft import StaticHEFT
from tests.conftest import make_chain_program, make_fork_join_program, trace_of


def run(machine, program):
    sim = Simulator(
        machine.platform(),
        StaticHEFT(),
        AnalyticalPerfModel(machine.calibration()),
        seed=0,
        record_level="tasks",
    )
    return sim, sim.run(program)


class TestPlan:
    def test_feasible_on_fork_join(self, hetero_machine):
        program = make_fork_join_program(width=12)
        sim, res = run(hetero_machine, program)
        check_schedule(program, trace_of(sim, res), sim.platform.workers)

    def test_feasible_on_chain(self, hetero_machine):
        program = make_chain_program(n=10)
        sim, res = run(hetero_machine, program)
        check_schedule(program, trace_of(sim, res), sim.platform.workers)

    def test_plan_covers_whole_submitted_dag(self, hetero_machine):
        """The plan must be built from the source tasks' closure, not
        just the initially-ready set."""
        program = make_chain_program(n=6)
        sim, res = run(hetero_machine, program)
        assert res.n_tasks == len(program)
        assert res.forced_pops == 0

    def test_gpu_work_lands_on_gpu(self, hetero_machine):
        program = make_fork_join_program(width=16, flops=2e9)
        sim, res = run(hetero_machine, program)
        plat = sim.platform
        gpu_tasks = sum(
            1 for r in trace_of(sim, res).task_records
            if plat.workers[r.worker].arch == "cuda"
        )
        assert gpu_tasks > len(program) / 2

    def test_competitive_with_dynamic_schedulers(self, hetero_machine):
        """With exact cost models and no noise, the offline plan must be
        within a modest factor of the best dynamic policy."""
        from repro.schedulers.registry import make_scheduler

        program = cholesky_program(8, 512)
        pm = AnalyticalPerfModel(hetero_machine.calibration())
        sim = Simulator(hetero_machine.platform(), StaticHEFT(), pm, seed=0)
        heft_span = sim.run(program).makespan
        best_dynamic = min(
            Simulator(hetero_machine.platform(), make_scheduler(n), pm, seed=0)
            .run(program)
            .makespan
            for n in ("multiprio", "dmdas")
        )
        assert heft_span <= 1.3 * best_dynamic

    def test_reusable_across_runs(self, hetero_machine):
        program = make_fork_join_program(width=6)
        _, res1 = run(hetero_machine, program)
        _, res2 = run(hetero_machine, program)
        assert res1.makespan == pytest.approx(res2.makespan)
