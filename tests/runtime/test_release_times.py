"""Release-by-clock submission: Program.release_times through the engine."""

from __future__ import annotations

import pytest

from repro.analysis.validation import check_schedule
from repro.runtime.engine import Simulator
from repro.runtime.perfmodel import AnalyticalPerfModel
from repro.runtime.stf import Program
from repro.schedulers.eager import Eager
from tests.conftest import make_chain_program, make_fork_join_program, trace_of


def with_releases(program: Program, releases) -> Program:
    return Program(
        program.tasks, program.handles, name=program.name,
        release_times=releases,
    )


def run(machine, program, **kw):
    sim = Simulator(
        machine.platform(), Eager(),
        AnalyticalPerfModel(machine.calibration()),
        seed=0, record_level="tasks", **kw,
    )
    return sim, sim.run(program)


class TestValidation:
    def test_wrong_length_rejected(self):
        program = make_chain_program(n=3)
        with pytest.raises(ValueError, match="entries for"):
            with_releases(program, [0.0, 0.0])

    def test_negative_rejected(self):
        program = make_chain_program(n=3)
        with pytest.raises(ValueError, match="negative"):
            with_releases(program, [0.0, -1.0, 0.0])

    def test_decreasing_rejected(self):
        program = make_chain_program(n=3)
        with pytest.raises(ValueError, match="non-decreasing"):
            with_releases(program, [0.0, 10.0, 5.0])

    def test_taskflow_programs_have_none(self):
        assert make_chain_program(n=3).release_times is None


class TestEngineHonorsReleases:
    def test_no_task_starts_before_its_release(self, hetero_machine):
        program = make_fork_join_program(width=6)
        releases = [0.0] + [500.0] * (len(program.tasks) - 1)
        sim, res = run(hetero_machine, with_releases(program, releases))
        by_tid = {r.tid: r for r in trace_of(sim, res).task_records}
        for tid, release in enumerate(releases):
            assert by_tid[tid].start >= release - 1e-9

    def test_all_zero_releases_match_no_releases(self, hetero_machine):
        program = make_fork_join_program(width=6)
        sim_a, base = run(hetero_machine, program)
        sim_b, zeroed = run(
            hetero_machine,
            with_releases(program, [0.0] * len(program.tasks)),
        )
        assert base.makespan == zeroed.makespan
        assert base.bytes_transferred == zeroed.bytes_transferred

    def test_far_future_release_stretches_the_run(self, hetero_machine):
        program = make_chain_program(n=4)
        releases = [0.0, 0.0, 0.0, 1e6]
        _, res = run(hetero_machine, with_releases(program, releases))
        assert res.makespan >= 1e6
        assert res.n_tasks == len(program)

    @pytest.mark.parametrize("window", [1, 2, None])
    def test_releases_compose_with_window(self, hetero_machine, window):
        program = make_fork_join_program(width=8)
        releases = [min(100.0 * i, 600.0) for i in range(len(program.tasks))]
        sim, res = run(
            hetero_machine, with_releases(program, releases),
            submission_window=window, check_invariants=True,
        )
        assert res.n_tasks == len(program)
        check_schedule(program, trace_of(sim, res), sim.platform.workers)
