"""CATS scheduler tests."""

import pytest

from repro.runtime.engine import SchedContext, Simulator
from repro.runtime.perfmodel import AnalyticalPerfModel
from repro.runtime.stf import TaskFlow
from repro.runtime.task import AccessMode, TaskState
from repro.schedulers.cats import CATS


def make_ctx(machine):
    return SchedContext(machine.platform(), AnalyticalPerfModel(machine.calibration()))


def chain_with_side_tasks():
    """A long critical chain plus cheap independent side tasks."""
    flow = TaskFlow()
    spine = flow.data(1024)
    chain = [flow.submit("gemm", [(spine, AccessMode.RW)], flops=1e9,
                         implementations=("cpu", "cuda")) for _ in range(5)]
    side = [flow.submit("gemm", [(flow.data(1024), AccessMode.W)], flops=1e7,
                        implementations=("cpu", "cuda")) for _ in range(5)]
    return flow, chain, side


class TestClassification:
    def test_chain_head_is_critical(self, hetero_machine):
        ctx = make_ctx(hetero_machine)
        sched = CATS()
        sched.setup(ctx)
        flow, chain, side = chain_with_side_tasks()
        for t in chain[:1] + side:
            t.state = TaskState.READY
            sched.push(t)
        # The chain head (bottom level 5e9) is critical; side tasks are not.
        assert len(sched._critical) == 1
        assert sched._critical[0][2] is chain[0]
        assert len(sched._normal) == 5

    def test_bottom_levels_accumulate_along_chain(self, hetero_machine):
        ctx = make_ctx(hetero_machine)
        sched = CATS()
        sched.setup(ctx)
        _, chain, _ = chain_with_side_tasks()
        levels = [sched._bottom_level(t) for t in chain]
        assert levels == sorted(levels, reverse=True)
        assert levels[0] == pytest.approx(5e9)


class TestPop:
    def test_fast_arch_gets_critical_first(self, hetero_machine):
        ctx = make_ctx(hetero_machine)
        sched = CATS()
        sched.setup(ctx)
        flow, chain, side = chain_with_side_tasks()
        for t in chain[:1] + side:
            t.state = TaskState.READY
            sched.push(t)
        gpu = ctx.workers_of_arch("cuda")[0]
        assert sched.pop(gpu) is chain[0]

    def test_slow_arch_gets_normal_first(self, hetero_machine):
        ctx = make_ctx(hetero_machine)
        sched = CATS()
        sched.setup(ctx)
        flow, chain, side = chain_with_side_tasks()
        for t in chain[:1] + side:
            t.state = TaskState.READY
            sched.push(t)
        cpu = ctx.workers_of_arch("cpu")[0]
        popped = sched.pop(cpu)
        assert popped in side

    def test_fast_arch_helps_with_normal_when_no_critical(self, hetero_machine):
        ctx = make_ctx(hetero_machine)
        sched = CATS()
        sched.setup(ctx)
        flow = TaskFlow()
        t = flow.submit("gemm", [(flow.data(8), AccessMode.W)], flops=1e6)
        t.state = TaskState.READY
        sched.push(t)
        gpu = ctx.workers_of_arch("cuda")[0]
        # cpu-only implementation: gpu cannot take it.
        assert sched.pop(gpu) is None
        cpu = ctx.workers_of_arch("cpu")[0]
        assert sched.pop(cpu) is t


class TestEndToEnd:
    def test_feasible_schedule(self, hetero_machine):
        from repro.analysis.validation import check_schedule
        from tests.conftest import make_fork_join_program, trace_of

        program = make_fork_join_program(width=10)
        sim = Simulator(
            hetero_machine.platform(),
            CATS(),
            AnalyticalPerfModel(hetero_machine.calibration()),
            seed=0,
            record_level="tasks",
        )
        res = sim.run(program)
        check_schedule(program, trace_of(sim, res), sim.platform.workers)

    def test_invalid_frac(self):
        from repro.utils.validation import ValidationError

        with pytest.raises(ValidationError):
            CATS(critical_frac=1.5)
