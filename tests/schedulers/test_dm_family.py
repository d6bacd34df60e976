"""Dm / Dmda / Dmdas behavioural tests."""

import pytest

from repro.runtime.engine import SchedContext, Simulator
from repro.runtime.perfmodel import AnalyticalPerfModel
from repro.runtime.stf import TaskFlow
from repro.runtime.task import AccessMode, TaskState
from repro.schedulers.dm import Dm
from repro.schedulers.dmda import Dmda
from repro.schedulers.dmdas import Dmdas
from repro.utils.validation import SchedulingError


def make_ctx(machine):
    return SchedContext(machine.platform(), AnalyticalPerfModel(machine.calibration()))


def ready(flow, size=1024, type_name="gemm", flops=1e9, priority=0, impls=("cpu", "cuda")):
    task = flow.submit(
        type_name,
        [(flow.data(size), AccessMode.RW)],
        flops=flops,
        implementations=impls,
        priority=priority,
    )
    task.state = TaskState.READY
    return task


class TestDm:
    def test_unexecutable_task_raises_scheduling_error(self, hetero_machine):
        """An explicit error, not an ``assert`` that ``python -O`` strips."""
        ctx = make_ctx(hetero_machine)
        sched = Dm()
        sched.setup(ctx)
        task = ready(TaskFlow(), impls=("opencl",))
        with pytest.raises(SchedulingError, match="no worker can execute"):
            sched.push(task)

    def test_assigns_to_fastest_idle_worker(self, hetero_machine):
        ctx = make_ctx(hetero_machine)
        sched = Dm()
        sched.setup(ctx)
        flow = TaskFlow()
        task = ready(flow, flops=2e9)  # strongly GPU-best
        sched.push(task)
        gpu_worker = ctx.workers_of_arch("cuda")[0]
        assert sched.pop(gpu_worker) is task

    def test_load_balances_across_gpu_workers(self, hetero_machine):
        ctx = make_ctx(hetero_machine)
        sched = Dm()
        sched.setup(ctx)
        flow = TaskFlow()
        tasks = [ready(flow, flops=2e9) for _ in range(4)]
        for t in tasks:
            sched.push(t)
        gpus = ctx.workers_of_arch("cuda")
        counts = [len(sched._queues[w.wid]) for w in gpus]
        assert counts == [2, 2]

    def test_spills_to_cpu_when_gpus_saturated(self, hetero_machine):
        ctx = make_ctx(hetero_machine)
        sched = Dm()
        sched.setup(ctx)
        flow = TaskFlow()
        for _ in range(300):
            sched.push(ready(flow, flops=2e9))
        cpu_queued = sum(
            len(sched._queues[w.wid]) for w in ctx.workers_of_arch("cpu")
        )
        assert cpu_queued > 0

    def test_pop_from_empty_returns_none(self, hetero_machine):
        ctx = make_ctx(hetero_machine)
        sched = Dm()
        sched.setup(ctx)
        assert sched.pop(ctx.workers[0]) is None


class TestDmda:
    def test_data_locality_steers_assignment(self, two_gpu_machine):
        """A task whose input lives on gpu1 must be assigned there, not
        to the equally-fast gpu0."""
        ctx = make_ctx(two_gpu_machine)
        sched = Dmda()
        sched.setup(ctx)
        flow = TaskFlow()
        big = flow.data(32 * 2**20)
        big.valid_nodes = {2}  # gpu1's memory node
        task = flow.submit("gemm", [(big, AccessMode.R)], flops=1e9,
                           implementations=("cuda",))
        task.state = TaskState.READY
        sched.push(task)
        gpu1_workers = [w.wid for w in ctx.workers if w.memory_node == 2]
        assert any(sched._queues[wid] for wid in gpu1_workers)

    def test_prefetch_starts_at_push(self, hetero_machine):
        ctx = make_ctx(hetero_machine)
        sched = Dmda()
        sched.setup(ctx)
        flow = TaskFlow()
        big = flow.data(16 * 2**20)  # in RAM
        task = flow.submit("gemm", [(big, AccessMode.R)], flops=5e9,
                           implementations=("cuda",))
        task.state = TaskState.READY
        sched.push(task)
        assert big.is_valid_on(1)  # replica (in flight) already registered


class TestDmdas:
    def test_priority_order_within_worker(self, hetero_machine):
        ctx = make_ctx(hetero_machine)
        sched = Dmdas()
        sched.setup(ctx)
        flow = TaskFlow()
        low = ready(flow, flops=2e9, priority=1)
        high = ready(flow, flops=2e9, priority=9)
        worker = ctx.workers_of_arch("cuda")[0]
        sched._enqueue(low, worker)
        sched._enqueue(high, worker)
        assert sched.pop(worker) is high
        assert sched.pop(worker) is low

    def test_locality_tiebreak_among_equal_priority(self, hetero_machine):
        ctx = make_ctx(hetero_machine)
        sched = Dmdas(locality_window=8)
        sched.setup(ctx)
        flow = TaskFlow()
        local = flow.data(8 * 2**20)
        remote = flow.data(8 * 2**20)
        local.valid_nodes = {1}  # on the GPU already
        t_remote = flow.submit("gemm", [(remote, AccessMode.R)], flops=1e9,
                               implementations=("cuda",))
        t_local = flow.submit("gemm", [(local, AccessMode.R)], flops=1e9,
                              implementations=("cuda",))
        for t in (t_remote, t_local):
            t.state = TaskState.READY
        gpu = ctx.workers_of_arch("cuda")[0]
        sched._enqueue(t_remote, gpu)
        sched._enqueue(t_local, gpu)
        assert sched.pop(gpu) is t_local

    def test_end_to_end_feasible(self, hetero_machine):
        from repro.analysis.validation import check_schedule
        from tests.conftest import make_fork_join_program, trace_of

        program = make_fork_join_program(width=10)
        sim = Simulator(
            hetero_machine.platform(),
            Dmdas(),
            AnalyticalPerfModel(hetero_machine.calibration()),
            seed=0,
            record_level="tasks",
        )
        res = sim.run(program)
        check_schedule(program, trace_of(sim, res), sim.platform.workers)
