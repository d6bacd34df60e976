"""Simulation engine tests: correctness, determinism, pipelining."""

import heapq

import pytest

from repro.analysis.validation import check_schedule
from repro.runtime.dag import critical_path_length
from repro.runtime.engine import Simulator
from repro.runtime.perfmodel import AnalyticalPerfModel
from repro.runtime.stf import TaskFlow
from repro.runtime.task import AccessMode, Task, TaskState
from repro.runtime.worker import Worker
from repro.runtime.events import TASK_COMPLETION
from repro.schedulers.base import Scheduler
from repro.schedulers.eager import Eager
from repro.schedulers.registry import make_scheduler
from repro.utils.validation import DeadlockError, SchedulingError
from tests.conftest import make_chain_program, make_fork_join_program, trace_of


def simulate(machine, program, scheduler=None, **kw):
    sim = Simulator(
        machine.platform(),
        scheduler or Eager(),
        AnalyticalPerfModel(machine.calibration()),
        seed=0,
        record_level="tasks",
        **kw,
    )
    return sim, sim.run(program)


class TestCompleteness:
    def test_all_tasks_executed(self, hetero_machine):
        program = make_fork_join_program(width=8)
        sim, res = simulate(hetero_machine, program)
        assert res.n_tasks == len(program)
        assert all(t.state is TaskState.DONE for t in program.tasks)

    def test_schedule_is_feasible(self, hetero_machine):
        program = make_fork_join_program(width=8)
        sim, res = simulate(hetero_machine, program)
        check_schedule(program, trace_of(sim, res), sim.platform.workers)

    def test_empty_program(self, hetero_machine):
        program = TaskFlow("empty").program()
        _, res = simulate(hetero_machine, program)
        assert res.makespan == 0.0
        assert res.n_tasks == 0

    def test_chain_respects_order(self, hetero_machine):
        program = make_chain_program(n=6)
        sim, res = simulate(hetero_machine, program)
        records = sorted(trace_of(sim, res).task_records, key=lambda r: r.start)
        tids = [r.tid for r in records]
        assert tids == sorted(tids)


class TestDeterminism:
    def test_same_seed_same_makespan(self, hetero_machine):
        program = make_fork_join_program(width=10)
        _, res1 = simulate(hetero_machine, program)
        _, res2 = simulate(hetero_machine, program)
        assert res1.makespan == res2.makespan

    def test_program_reusable_across_runs(self, hetero_machine, two_gpu_machine):
        program = make_fork_join_program(width=10)
        _, res1 = simulate(hetero_machine, program)
        _, res2 = simulate(two_gpu_machine, program)
        _, res3 = simulate(hetero_machine, program)
        assert res1.makespan == res3.makespan
        assert res2.makespan != 0

    def test_reset_runtime_state_clears_sched_scratch(self, hetero_machine):
        program = make_fork_join_program(width=4)
        simulate(hetero_machine, program)
        assert all(t.sched for t in program.tasks)  # runs leave records behind
        program.reset_runtime_state()
        assert all(not t.sched for t in program.tasks)

    def test_program_reusable_across_different_arch_platforms(
        self, hetero_machine, cpu_machine
    ):
        """A stale per-task scratch (e.g. a cached best arch of 'cuda')
        leaking from a hetero run must not poison a CPU-only rerun."""
        program = make_fork_join_program(width=6)
        _, res_gpu = simulate(
            hetero_machine, program, scheduler=make_scheduler("multiprio")
        )
        _, res_cpu = simulate(
            cpu_machine, program, scheduler=make_scheduler("multiprio")
        )
        assert all(t.state is TaskState.DONE for t in program.tasks)
        assert res_gpu.makespan > 0 and res_cpu.makespan > 0


class TestTimingModel:
    def test_makespan_at_least_critical_path(self, hetero_machine):
        program = make_chain_program(n=8, flops=1e8)
        pm = AnalyticalPerfModel(hetero_machine.calibration())
        cp = critical_path_length(
            program.tasks,
            lambda t: min(pm.estimate(t, a) for a in ("cpu", "cuda")),
        )
        _, res = simulate(hetero_machine, program)
        assert res.makespan >= cp - 1e-6

    def test_serial_chain_has_no_parallel_speedup(self, hetero_machine, cpu_machine):
        program = make_chain_program(n=6, flops=1e8)
        _, res_many = simulate(hetero_machine, program)
        _, res_cpu = simulate(cpu_machine, program)
        # Chain length dominated by per-task time; more workers cannot help
        # beyond running each task on the fastest unit.
        assert res_many.makespan <= res_cpu.makespan

    def test_transfer_wait_recorded(self, hetero_machine):
        flow = TaskFlow()
        big = flow.data(64 * 2**20, label="big")  # 64 MiB
        flow.submit("init", [(big, AccessMode.W)], flops=1e6, implementations=("cpu",))
        flow.submit("gemm", [(big, AccessMode.R)], flops=1e6, implementations=("cuda",))
        program = flow.program()
        sim, res = simulate(hetero_machine, program)
        gpu_rec = [r for r in trace_of(sim, res).task_records if r.type_name == "gemm"][0]
        assert gpu_rec.wait_time > 0  # had to fetch 64 MiB over PCIe
        assert res.bytes_transferred == 64 * 2**20

    def test_noise_changes_durations_but_not_validity(self, hetero_machine):
        program = make_fork_join_program(width=6)
        pm = AnalyticalPerfModel(hetero_machine.calibration(), noise_sigma=0.4)
        sim = Simulator(
            hetero_machine.platform(), Eager(), pm, seed=7, record_level="tasks"
        )
        res = sim.run(program)
        check_schedule(program, trace_of(sim, res), sim.platform.workers)


class TestPipeline:
    def test_pipeline_overlaps_transfers(self):
        """With lookahead, a GPU's next task's transfer overlaps the
        current execution, so total makespan shrinks. One GPU worker so
        the overlap cannot come from a sibling stream."""
        from repro.platform.machines import small_hetero

        machine = small_hetero(n_cpus=1, n_gpus=1, gpu_streams=1)
        flow = TaskFlow()
        handles = [flow.data(8 * 2**20, label=f"h{i}") for i in range(8)]
        for h in handles:
            flow.submit("init", [(h, AccessMode.W)], flops=1e3, implementations=("cpu",))
        for h in handles:
            flow.submit("gemm", [(h, AccessMode.R)], flops=5e9, implementations=("cuda",))
        program = flow.program()
        _, res_pipe = simulate(machine, program, pipeline=True)
        _, res_nopipe = simulate(machine, program, pipeline=False)
        assert res_pipe.makespan < res_nopipe.makespan

    def test_pipeline_preserves_feasibility(self, hetero_machine):
        program = make_fork_join_program(width=12)
        sim, res = simulate(hetero_machine, program, pipeline=True)
        check_schedule(program, trace_of(sim, res), sim.platform.workers)


class _NullScheduler(Scheduler):
    """Never returns work: must trigger the deadlock diagnosis."""

    name = "null"

    def push(self, task: Task) -> None:
        pass

    def pop(self, worker: Worker) -> Task | None:
        return None


class _WrongArchScheduler(Eager):
    """Returns tasks to workers that cannot execute them."""

    name = "wrong-arch"

    def pop(self, worker: Worker) -> Task | None:
        task = self._queue.popleft() if self._queue else None
        return task


class _LossyHeapq:
    """heapq facade that loses TASK_COMPLETION events (a simulated engine
    bug): executions start but never finish, so the event queue drains."""

    def __getattr__(self, attr):
        return getattr(heapq, attr)

    def heappush(self, heap, item):
        if item[2] != TASK_COMPLETION:
            heapq.heappush(heap, item)


class TestErrorHandling:
    def test_null_scheduler_deadlocks(self, hetero_machine):
        program = make_chain_program(n=3)
        with pytest.raises(DeadlockError, match="stalled"):
            simulate(hetero_machine, program, scheduler=_NullScheduler())

    def test_stalled_deadlock_reports_scheduler_stats(self, hetero_machine):
        program = make_chain_program(n=3)
        with pytest.raises(DeadlockError, match=r"stalled.*scheduler stats:"):
            simulate(hetero_machine, program, scheduler=_NullScheduler())

    def test_drained_queue_deadlock_reports_scheduler_stats(
        self, hetero_machine, monkeypatch
    ):
        import repro.runtime.engine as engine_mod

        monkeypatch.setattr(engine_mod, "heapq", _LossyHeapq())
        program = make_chain_program(n=3)
        with pytest.raises(DeadlockError, match=r"drained.*stats:"):
            simulate(hetero_machine, program)

    def test_wrong_arch_assignment_rejected(self, hetero_machine):
        flow = TaskFlow()
        h = flow.data(8)
        flow.submit("t", [(h, AccessMode.W)], implementations=("cuda",))
        program = flow.program()
        with pytest.raises(SchedulingError, match="implementation"):
            # CPU worker (wid 0) requests first and receives the cuda task.
            simulate(hetero_machine, program, scheduler=_WrongArchScheduler())

    def test_unexecutable_program_rejected(self, cpu_machine):
        flow = TaskFlow()
        h = flow.data(8)
        flow.submit("t", [(h, AccessMode.W)], implementations=("cuda",))
        program = flow.program()
        with pytest.raises(SchedulingError, match="platform"):
            simulate(cpu_machine, program)


class TestAccounting:
    def test_idle_fractions_bounded(self, hetero_machine):
        program = make_fork_join_program(width=8)
        _, res = simulate(hetero_machine, program)
        for frac in res.idle_frac_by_arch.values():
            assert 0.0 <= frac <= 1.0

    def test_exec_time_by_arch_sums_to_busy_time(self, hetero_machine):
        program = make_fork_join_program(width=8)
        sim, res = simulate(hetero_machine, program)
        total_exec = sum(r.exec_time for r in trace_of(sim, res).task_records)
        assert sum(res.exec_time_by_arch.values()) == pytest.approx(total_exec)

    def test_gflops_property(self, hetero_machine):
        program = make_fork_join_program(width=4, flops=1e9)
        _, res = simulate(hetero_machine, program)
        expected = res.total_flops / (res.makespan * 1e-6) / 1e9
        assert res.gflops == pytest.approx(expected)


class _DoubleHandoutScheduler(Scheduler):
    """pop() never serves work, so every pop goes through the liveness
    rescue; force_pop() always returns the first task it ever saw —
    from the second rescue on, a task already handed out."""

    name = "double-handout"

    def __init__(self) -> None:
        self._tasks: list[Task] = []

    def push(self, task: Task) -> None:
        self._tasks.append(task)

    def pop(self, worker: Worker) -> Task | None:
        return None

    def force_pop(self, worker: Worker) -> Task | None:
        return self._tasks[0] if self._tasks else None


class TestLivenessRescue:
    def test_rescued_task_handed_out_twice_is_an_error(self, hetero_machine):
        # Silently dropping the non-READY task (the old behavior) would
        # let the run limp on to an unrelated DeadlockError; the engine
        # must instead name the scheduler contract violation.
        program = make_fork_join_program(width=4)
        with pytest.raises(SchedulingError, match="liveness-rescue"):
            simulate(hetero_machine, program, scheduler=_DoubleHandoutScheduler())
