"""MultiPrio scheduler tests: Alg. 1 PUSH, Alg. 2 POP, eviction."""

import pytest

from repro.analysis.validation import check_schedule
from repro.schedulers.multiprio import MultiPrio
from repro.runtime.engine import SchedContext, Simulator
from repro.runtime.perfmodel import AnalyticalPerfModel
from repro.runtime.stf import TaskFlow
from repro.runtime.task import AccessMode, TaskState
from repro.utils.validation import ValidationError
from tests.conftest import make_fork_join_program, trace_of


def make_ctx(machine):
    return SchedContext(machine.platform(), AnalyticalPerfModel(machine.calibration()))


def ready_task(flow, handle, type_name="gemm", flops=1e8, impls=("cpu", "cuda")):
    task = flow.submit(type_name, [(handle, AccessMode.RW)], flops=flops,
                       implementations=impls)
    task.state = TaskState.READY
    return task


class TestPush:
    def test_task_duplicated_into_all_capable_heaps(self, two_gpu_machine):
        ctx = make_ctx(two_gpu_machine)
        sched = MultiPrio()
        sched.setup(ctx)
        flow = TaskFlow()
        task = ready_task(flow, flow.data(1024))
        sched.push(task)
        # RAM heap + both GPU heaps.
        assert sorted(task.sched["mp_entries"]) == [0, 1, 2]
        assert all(len(h) == 1 for h in sched.heaps.values())

    def test_cpu_only_task_skips_gpu_heaps(self, two_gpu_machine):
        ctx = make_ctx(two_gpu_machine)
        sched = MultiPrio()
        sched.setup(ctx)
        flow = TaskFlow()
        task = ready_task(flow, flow.data(1024), impls=("cpu",))
        sched.push(task)
        assert sorted(task.sched["mp_entries"]) == [0]

    def test_best_remaining_work_counts_best_arch_nodes(self, two_gpu_machine):
        ctx = make_ctx(two_gpu_machine)
        sched = MultiPrio()
        sched.setup(ctx)
        flow = TaskFlow()
        task = ready_task(flow, flow.data(1024), flops=1e9)  # GPU-best
        sched.push(task)
        best = ctx.best_arch(task)
        assert best == "cuda"
        delta = ctx.estimate(task, "cuda")
        assert sched.best_remaining_work[1] == pytest.approx(delta)
        assert sched.best_remaining_work[2] == pytest.approx(delta)
        assert sched.best_remaining_work[0] == 0.0

    def test_gain_orders_gpu_heap(self, hetero_machine):
        """Once hd has stabilized, a strongly-accelerated task outranks a
        weakly-accelerated one in the GPU heap."""
        ctx = make_ctx(hetero_machine)
        sched = MultiPrio()
        sched.setup(ctx)
        flow = TaskFlow()
        strong = ready_task(flow, flow.data(1024), type_name="gemm", flops=2e9)
        weak = ready_task(flow, flow.data(1024), type_name="potrf", flops=1e8)
        sched.push(strong)  # fixes hd at the large gemm difference
        sched.push(weak)
        gpu_heap = sched.heaps[1]
        assert gpu_heap.best().task is strong

    def test_first_push_saturates_gain(self, hetero_machine):
        """Inherent to the dynamic hd maximum: the first multi-arch task
        pushed on a fresh tracker defines hd, so its fastest-arch gain is
        exactly 1 (its own difference IS the running maximum)."""
        ctx = make_ctx(hetero_machine)
        sched = MultiPrio()
        sched.setup(ctx)
        flow = TaskFlow()
        task = ready_task(flow, flow.data(1024), type_name="potrf", flops=1e8)
        sched.push(task)
        best_node = ctx.platform.nodes_of_arch(ctx.best_arch(task))[0].mid
        assert sched.heaps[best_node].best().gain == pytest.approx(1.0)


class TestPopCondition:
    def test_best_worker_always_admitted(self, hetero_machine):
        ctx = make_ctx(hetero_machine)
        sched = MultiPrio()
        sched.setup(ctx)
        flow = TaskFlow()
        task = ready_task(flow, flow.data(1024), flops=1e9)
        sched.push(task)
        gpu_worker = ctx.workers_of_arch("cuda")[0]
        assert sched.pop(gpu_worker) is task

    def test_slow_worker_rejected_without_backlog(self, hetero_machine):
        """One GPU-best task, empty GPU backlog otherwise: the CPU must
        not steal it (this is the Fig. 4 end-of-run scenario)."""
        ctx = make_ctx(hetero_machine)
        sched = MultiPrio()
        sched.setup(ctx)
        flow = TaskFlow()
        task = ready_task(flow, flow.data(1024), flops=2e9)
        sched.push(task)
        sched._take(task)  # consume its own BRW contribution
        task.sched["mp_taken"] = False  # still ready, but BRW now empty
        cpu_worker = ctx.workers_of_arch("cpu")[0]
        assert sched.pop(cpu_worker) is None

    def test_slow_worker_admitted_with_large_backlog(self, hetero_machine):
        ctx = make_ctx(hetero_machine)
        sched = MultiPrio()
        sched.setup(ctx)
        flow = TaskFlow()
        tasks = [ready_task(flow, flow.data(1024), flops=5e8) for _ in range(100)]
        for t in tasks:
            sched.push(t)
        cpu_worker = ctx.workers_of_arch("cpu")[0]
        popped = sched.pop(cpu_worker)
        assert popped is not None

    def test_slowdown_cap_blocks_terrible_matches(self, hetero_machine):
        ctx = make_ctx(hetero_machine)
        sched = MultiPrio(slowdown_cap=5.0)
        sched.setup(ctx)
        flow = TaskFlow()
        # gemm at 2e9 flops is ~50x slower on a CPU core.
        tasks = [ready_task(flow, flow.data(1024), flops=2e9) for _ in range(200)]
        for t in tasks:
            sched.push(t)
        cpu_worker = ctx.workers_of_arch("cpu")[0]
        assert sched.pop(cpu_worker) is None

    def test_eviction_disabled_admits_everything(self, hetero_machine):
        ctx = make_ctx(hetero_machine)
        sched = MultiPrio(eviction=False)
        sched.setup(ctx)
        flow = TaskFlow()
        task = ready_task(flow, flow.data(1024), flops=2e9)
        sched.push(task)
        sched.best_remaining_work[1] = 0.0  # force the unfavourable case
        cpu_worker = ctx.workers_of_arch("cpu")[0]
        assert sched.pop(cpu_worker) is task


class TestDuplicates:
    def test_pop_marks_duplicates_stale(self, two_gpu_machine):
        ctx = make_ctx(two_gpu_machine)
        sched = MultiPrio()
        sched.setup(ctx)
        flow = TaskFlow()
        task = ready_task(flow, flow.data(1024), flops=1e9)
        sched.push(task)
        gpu0 = [w for w in ctx.workers_of_arch("cuda") if w.memory_node == 1][0]
        gpu1 = [w for w in ctx.workers_of_arch("cuda") if w.memory_node == 2][0]
        assert sched.pop(gpu0) is task
        assert sched.pop(gpu1) is None  # duplicate recognized as stale
        assert len(sched.heaps[2]) == 0

    def test_brw_released_once_on_take(self, two_gpu_machine):
        ctx = make_ctx(two_gpu_machine)
        sched = MultiPrio()
        sched.setup(ctx)
        flow = TaskFlow()
        task = ready_task(flow, flow.data(1024), flops=1e9)
        sched.push(task)
        gpu0 = [w for w in ctx.workers_of_arch("cuda") if w.memory_node == 1][0]
        sched.pop(gpu0)
        assert sched.best_remaining_work[1] == pytest.approx(0.0)
        assert sched.best_remaining_work[2] == pytest.approx(0.0)


class TestEndToEnd:
    def test_valid_schedule_on_fork_join(self, hetero_machine):
        program = make_fork_join_program(width=16)
        sim = Simulator(
            hetero_machine.platform(),
            MultiPrio(),
            AnalyticalPerfModel(hetero_machine.calibration()),
            seed=0,
            record_level="tasks",
        )
        res = sim.run(program)
        check_schedule(program, trace_of(sim, res), sim.platform.workers)
        assert res.scheduler_stats["stale_discards"] >= 0

    def test_eviction_improves_fig4_style_run(self, hetero_machine):
        from repro.apps.dense import cholesky_program

        program = cholesky_program(8, 512, with_priorities=False)
        results = {}
        for eviction in (True, False):
            sim = Simulator(
                hetero_machine.platform(),
                MultiPrio(eviction=eviction),
                AnalyticalPerfModel(hetero_machine.calibration()),
                seed=0,
            )
            results[eviction] = sim.run(program).makespan
        assert results[True] <= results[False]

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValidationError):
            MultiPrio(locality_n=0)
        with pytest.raises(ValidationError):
            MultiPrio(locality_eps=1.5)
        with pytest.raises(ValidationError):
            MultiPrio(max_tries=0)
        with pytest.raises(ValidationError):
            MultiPrio(brw_safety=0.0)
        with pytest.raises(ValidationError):
            MultiPrio(slowdown_cap=-1.0)


class TestRejectionStats:
    """Rejections land in the counter matching the configured mechanism —
    ``skips`` when entries stay in the heap, ``evictions`` when they are
    removed — not all lumped under one mislabeled counter."""

    def run_stats(self, hetero_machine, **mp_kw):
        from repro.apps.dense import cholesky_program

        program = cholesky_program(8, 512, with_priorities=False)
        sim = Simulator(
            hetero_machine.platform(),
            MultiPrio(**mp_kw),
            AnalyticalPerfModel(hetero_machine.calibration()),
            seed=0,
        )
        sim.run(program)
        return sim.scheduler.stats()

    def test_skip_mode_counts_skips_only(self, hetero_machine):
        stats = self.run_stats(hetero_machine, evict_on_reject=False)
        assert stats["skips"] > 0
        assert stats["evictions"] == 0

    def test_evict_mode_counts_evictions_only(self, hetero_machine):
        stats = self.run_stats(hetero_machine, evict_on_reject=True)
        assert stats["evictions"] > 0
        assert stats["skips"] == 0
