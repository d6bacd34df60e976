"""Static HEFT — the classic offline list scheduler as a reference bound.

Topcuoglu et al.'s HEFT [15] with full-DAG knowledge: tasks are ranked
by upward rank (mean-execution-cost bottom level) and assigned, in rank
order, to the worker minimizing the earliest finish time including an
estimated transfer delay for each cross-node dependency edge.

This is *not* one of the paper's dynamic baselines — the paper's dm
family is its dynamic derivative — but it provides the standard offline
reference point: a dynamic scheduler that loses badly to static HEFT on
a DAG with accurate cost models is leaving performance on the table,
while beating it indicates it exploits runtime information (actual
completion order, data residency) the static schedule cannot.

The plan is computed lazily on the first pop (by then the whole program
has been submitted — our generators submit everything ahead, like
CHAMELEON); execution then simply follows the per-worker queues.
"""

from __future__ import annotations

from collections import deque

from repro.runtime.task import Task, TaskState
from repro.runtime.worker import Worker
from repro.schedulers.base import Scheduler
from repro.utils.validation import SchedulingError


class StaticHEFT(Scheduler):
    """Offline HEFT plan, replayed through the PUSH/POP interface."""

    name = "static-heft"

    def __init__(self) -> None:
        super().__init__()
        self._known: list[Task] = []
        self._planned = False
        self._queues: dict[int, deque[Task]] = {}

    def setup(self, ctx) -> None:
        super().setup(ctx)
        self._known = []
        self._planned = False
        self._queues = {w.wid: deque() for w in ctx.workers}

    # -- plan construction ----------------------------------------------------

    def _mean_cost(self, task: Task) -> float:
        archs = self.ctx.exec_archs(task)
        return sum(self.ctx.estimate(task, a) for a in archs) / len(archs)

    def _upward_ranks(self, tasks: list[Task]) -> dict[int, float]:
        ranks: dict[int, float] = {}
        # Iterative reverse-topological sweep (no recursion-depth limits).
        for task in reversed(self._topo(tasks)):
            best_succ = max(
                (self._comm_cost(task, s) + ranks[s.tid] for s in task.succs),
                default=0.0,
            )
            ranks[task.tid] = self._mean_cost(task) + best_succ
        return ranks

    @staticmethod
    def _topo(tasks: list[Task]) -> list[Task]:
        indeg = {t.tid: len(t.preds) for t in tasks}
        queue = deque(t for t in tasks if indeg[t.tid] == 0)
        order: list[Task] = []
        while queue:
            task = queue.popleft()
            order.append(task)
            for succ in task.succs:
                if succ.tid in indeg:
                    indeg[succ.tid] -= 1
                    if indeg[succ.tid] == 0:
                        queue.append(succ)
        return order

    def _comm_cost(self, producer: Task, consumer: Task) -> float:
        """Mean transfer estimate of the data shared along the edge."""
        shared = {h.hid for h in producer.handles(written=True)}
        nbytes = sum(h.size for h in consumer.handles(written=False) if h.hid in shared)
        if nbytes == 0:
            return 0.0
        # One representative PCIe-class link; refined per-assignment below.
        links = self.ctx.platform.transfers.links()
        if not links:
            return 0.0
        mean_bw = sum(l.bandwidth for l in links) / len(links)
        mean_lat = sum(l.latency for l in links) / len(links)
        return mean_lat + nbytes / mean_bw

    def _build_plan(self) -> None:
        ctx = self.ctx
        # Only ready tasks have been pushed; the rest of the submitted
        # DAG is reachable through the successor links (our generators
        # submit ahead, like CHAMELEON). Take the transitive closure.
        tasks: list[Task] = []
        seen: set[int] = set()
        frontier = list(self._known)
        while frontier:
            task = frontier.pop()
            if task.tid in seen:
                continue
            seen.add(task.tid)
            tasks.append(task)
            frontier.extend(task.succs)
        ranks = self._upward_ranks(tasks)
        order = sorted(tasks, key=lambda t: -ranks[t.tid])
        worker_free = {w.wid: 0.0 for w in ctx.workers}
        finish: dict[int, float] = {}
        placed_node: dict[int, int] = {}
        for task in order:
            best_worker = None
            best_eft = float("inf")
            for worker in ctx.workers:
                if not ctx.can_exec(task, worker.arch):
                    continue
                ready = 0.0
                for pred in task.preds:
                    comm = (
                        0.0
                        if placed_node.get(pred.tid) == worker.memory_node
                        else self._comm_cost(pred, task)
                    )
                    ready = max(ready, finish.get(pred.tid, 0.0) + comm)
                start = max(worker_free[worker.wid], ready)
                eft = start + ctx.estimate(task, worker.arch)
                if eft < best_eft:
                    best_eft = eft
                    best_worker = worker
            if best_worker is None:
                raise SchedulingError(f"no worker can execute {task.name}")
            worker_free[best_worker.wid] = best_eft
            finish[task.tid] = best_eft
            placed_node[task.tid] = best_worker.memory_node
            task.sched["heft_worker"] = best_worker.wid
            task.sched["heft_start"] = best_eft - ctx.estimate(task, best_worker.arch)
        # Per-worker queues in planned start order.
        for task in sorted(order, key=lambda t: t.sched["heft_start"]):
            self._queues[task.sched["heft_worker"]].append(task)
        self._planned = True

    # -- hooks ---------------------------------------------------------------

    def push(self, task: Task) -> None:
        self._known.append(task)
        # Tasks covered by the plan were queued at planning time; a task
        # genuinely unseen by the plan (dynamically materialized after
        # planning, outside the submitted closure) is placed greedily.
        if self._planned and "heft_worker" not in task.sched:
            ctx = self.ctx
            worker = min(
                (w for w in ctx.workers if ctx.can_exec(task, w.arch)),
                key=lambda w: len(self._queues[w.wid]) * ctx.estimate(task, w.arch),
            )
            self._queues[worker.wid].append(task)

    def pop(self, worker: Worker) -> Task | None:
        if not self._planned:
            self._build_plan()
        queue = self._queues[worker.wid]
        # Respect the planned order: only release a task whose turn has
        # come (it is READY); otherwise wait (the engine re-polls).
        if queue and queue[0].state is TaskState.READY:
            return queue.popleft()
        return None

    def force_pop(self, worker: Worker) -> Task | None:
        for queue in self._queues.values():
            for _ in range(len(queue)):
                task = queue.popleft()
                if task.state is TaskState.READY and task.can_exec(worker.arch):
                    return task
                queue.append(task)
        return None
