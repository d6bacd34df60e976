"""Work-stealing scheduler tests."""

from repro.runtime.engine import SchedContext, Simulator
from repro.runtime.perfmodel import AnalyticalPerfModel
from repro.runtime.stf import TaskFlow
from repro.runtime.task import AccessMode, TaskState
from repro.schedulers.ws import LocalityWorkStealing, WorkStealing


def make_ctx(machine):
    return SchedContext(machine.platform(), AnalyticalPerfModel(machine.calibration()))


def ready(flow, impls=("cpu", "cuda")):
    task = flow.submit("k", [(flow.data(64), AccessMode.RW)], flops=1e6,
                       implementations=impls)
    task.state = TaskState.READY
    return task


class TestWorkStealing:
    def test_sources_round_robin(self, hetero_machine):
        ctx = make_ctx(hetero_machine)
        sched = WorkStealing()
        sched.setup(ctx)
        flow = TaskFlow()
        for _ in range(len(ctx.workers)):
            sched.push(ready(flow))
        assert all(len(q) == 1 for q in sched._deques.values())

    def test_own_deque_is_lifo(self, hetero_machine):
        ctx = make_ctx(hetero_machine)
        sched = WorkStealing()
        sched.setup(ctx)
        flow = TaskFlow()
        first, second = ready(flow), ready(flow)
        worker = ctx.workers[0]
        sched._deques[worker.wid].extend([first, second])
        assert sched.pop(worker) is second

    def test_steals_from_most_loaded(self, hetero_machine):
        ctx = make_ctx(hetero_machine)
        sched = WorkStealing()
        sched.setup(ctx)
        flow = TaskFlow()
        thief, light, heavy = ctx.workers[0], ctx.workers[1], ctx.workers[2]
        sched._deques[light.wid].append(ready(flow))
        marked = [ready(flow) for _ in range(3)]
        sched._deques[heavy.wid].extend(marked)
        stolen = sched.pop(thief)
        assert stolen is marked[0]  # FIFO end of the most loaded victim
        assert sched.stats()["steals"] == 1.0

    def test_steal_skips_incompatible_tasks(self, hetero_machine):
        ctx = make_ctx(hetero_machine)
        sched = WorkStealing()
        sched.setup(ctx)
        flow = TaskFlow()
        gpu_only = ready(flow, impls=("cuda",))
        victim = ctx.workers_of_arch("cuda")[0]
        sched._deques[victim.wid].append(gpu_only)
        cpu_thief = ctx.workers_of_arch("cpu")[0]
        assert sched.pop(cpu_thief) is None
        assert sched.pop(victim) is gpu_only

    def test_release_locality(self, hetero_machine):
        """A successor released by a completion lands on the releasing
        worker's deque."""
        ctx = make_ctx(hetero_machine)
        sched = WorkStealing()
        sched.setup(ctx)
        flow = TaskFlow()
        releasing = ctx.workers[2]
        done = ready(flow)
        sched.on_task_done(done, releasing)
        succ = ready(flow)
        sched.push(succ)
        assert succ in sched._deques[releasing.wid]


class TestLocalityWorkStealing:
    def test_same_node_victim_preferred(self, two_gpu_machine):
        ctx = make_ctx(two_gpu_machine)
        sched = LocalityWorkStealing()
        sched.setup(ctx)
        flow = TaskFlow()
        cpu_workers = ctx.workers_of_arch("cpu")
        thief, neighbor = cpu_workers[0], cpu_workers[1]
        far = ctx.workers_of_arch("cuda")[0]
        near_task, far_task = ready(flow), ready(flow)
        sched._deques[neighbor.wid].append(near_task)
        sched._deques[far.wid].extend([far_task, ready(flow)])  # more loaded
        assert sched.pop(thief) is near_task

    def test_end_to_end(self, hetero_machine):
        from repro.analysis.validation import check_schedule
        from tests.conftest import make_fork_join_program, trace_of

        program = make_fork_join_program(width=9)
        sim = Simulator(
            hetero_machine.platform(),
            LocalityWorkStealing(),
            AnalyticalPerfModel(hetero_machine.calibration()),
            seed=0,
            record_level="tasks",
        )
        res = sim.run(program)
        check_schedule(program, trace_of(sim, res), sim.platform.workers)
