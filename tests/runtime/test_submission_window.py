"""Progressive submission window tests (STF task-window throttling)."""

import pytest

from repro.analysis.validation import check_schedule
from repro.runtime.engine import Simulator
from repro.runtime.perfmodel import AnalyticalPerfModel
from repro.schedulers.eager import Eager
from repro.schedulers.registry import make_scheduler
from repro.utils.validation import SchedulingError
from tests.conftest import make_chain_program, make_fork_join_program, trace_of


def simulate(machine, program, window, scheduler=None):
    sim = Simulator(
        machine.platform(),
        scheduler or Eager(),
        AnalyticalPerfModel(machine.calibration()),
        seed=0,
        submission_window=window,
        record_level="tasks",
    )
    return sim, sim.run(program)


class TestWindow:
    def test_window_one_serializes_submission_order(self, hetero_machine):
        program = make_fork_join_program(width=6)
        sim, res = simulate(hetero_machine, program, window=1)
        records = sorted(trace_of(sim, res).task_records, key=lambda r: r.start)
        assert [r.tid for r in records] == sorted(r.tid for r in records)

    def test_small_window_cannot_beat_unbounded(self, hetero_machine):
        program = make_fork_join_program(width=16, flops=5e8)
        _, bounded = simulate(hetero_machine, program, window=2)
        _, unbounded = simulate(hetero_machine, program, window=None)
        assert bounded.makespan >= unbounded.makespan - 1e-6

    def test_wide_window_equals_unbounded(self, hetero_machine):
        program = make_fork_join_program(width=8)
        _, wide = simulate(hetero_machine, program, window=10_000)
        _, unbounded = simulate(hetero_machine, program, window=None)
        assert wide.makespan == pytest.approx(unbounded.makespan)

    @pytest.mark.parametrize("window", [1, 3, 7])
    def test_feasibility_and_completeness(self, hetero_machine, window):
        program = make_fork_join_program(width=10)
        sim, res = simulate(hetero_machine, program, window)
        assert res.n_tasks == len(program)
        check_schedule(program, trace_of(sim, res), sim.platform.workers)

    @pytest.mark.parametrize("name", ["multiprio", "dmdas", "heteroprio"])
    def test_all_schedulers_respect_window(self, hetero_machine, name):
        program = make_chain_program(n=8)
        sim, res = simulate(
            hetero_machine, program, window=2, scheduler=make_scheduler(name)
        )
        check_schedule(program, trace_of(sim, res), sim.platform.workers)

    def test_invalid_window_rejected(self, hetero_machine):
        with pytest.raises(SchedulingError):
            Simulator(
                hetero_machine.platform(),
                Eager(),
                AnalyticalPerfModel(hetero_machine.calibration()),
                submission_window=0,
            )
