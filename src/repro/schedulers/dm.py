"""Dm — StarPU's "dequeue model" scheduler (a.k.a. heft-tm).

Push-time assignment: when a task becomes ready, estimate its completion
time on every worker (worker's expected availability + δ(t, a)) and
queue it on the minimizing worker. This is the dynamic-HEFT strategy the
paper's Section II describes; Dmda and Dmdas refine it with data-transfer
awareness and priority sorting.
"""

from __future__ import annotations

from collections import deque

from repro.runtime.task import Task
from repro.runtime.worker import Worker
from repro.schedulers.base import Scheduler
from repro.utils.validation import SchedulingError


class Dm(Scheduler):
    """Dequeue-model scheduler: HEFT-style expected-completion fitness."""

    name = "dm"

    #: Dm ignores transfer costs; Dmda overrides.
    data_aware = False
    #: Dm does not prefetch; Dmda/Dmdas do (assignment is known early).
    prefetch = False

    def __init__(self) -> None:
        super().__init__()
        self._queues: dict[int, deque[Task]] = {}
        self._expected_free: dict[int, float] = {}

    def setup(self, ctx) -> None:
        super().setup(ctx)
        self._queues = {w.wid: deque() for w in ctx.workers}
        self._expected_free = {w.wid: 0.0 for w in ctx.workers}

    # -- fitness -----------------------------------------------------------

    def _fitness(
        self, task: Task, worker: Worker, transfer_cache: dict[int, float] | None = None
    ) -> float:
        """Expected completion time of ``task`` on ``worker``.

        With data awareness the transfer term is overlapped with the
        queue-drain time (transfers are prefetched while earlier tasks
        execute), so the start estimate is a max, not a sum. The transfer
        term depends only on the memory node, so one push evaluates it
        once per node (``transfer_cache``), not once per worker.
        """
        ctx = self.ctx
        start = max(ctx.now, self._expected_free[worker.wid])
        if self.data_aware:
            node = worker.memory_node
            if transfer_cache is None:
                transfer = ctx.transfer_estimate(task, node)
            else:
                transfer = transfer_cache.get(node)
                if transfer is None:
                    transfer = ctx.transfer_estimate(task, node)
                    transfer_cache[node] = transfer
            start = max(start, ctx.now + transfer)
        return start + ctx.estimate(task, worker.arch)

    def _choose_worker(self, task: Task) -> Worker:
        ctx = self.ctx
        best: Worker | None = None
        best_fit = float("inf")
        transfer_cache: dict[int, float] = {}
        for worker in ctx.workers:
            if not ctx.can_exec(task, worker.arch):
                continue
            fit = self._fitness(task, worker, transfer_cache)
            if fit < best_fit:
                best_fit = fit
                best = worker
        if best is None:
            raise SchedulingError(f"no worker can execute {task.name}")
        return best

    # -- hooks ---------------------------------------------------------------

    def push(self, task: Task) -> None:
        ctx = self.ctx
        worker = self._choose_worker(task)
        self._expected_free[worker.wid] = self._fitness(task, worker)
        self._enqueue(task, worker)
        if self.prefetch:
            ctx.prefetch(task, worker.memory_node)

    def _enqueue(self, task: Task, worker: Worker) -> None:
        self._queues[worker.wid].append(task)

    def pop(self, worker: Worker) -> Task | None:
        queue = self._queues[worker.wid]
        if queue:
            return queue.popleft()
        # Keep the availability estimate honest while idle.
        if self._expected_free[worker.wid] < self.ctx.now:
            self._expected_free[worker.wid] = self.ctx.now
        return None

    def force_pop(self, worker: Worker) -> Task | None:
        for queue in self._queues.values():
            for _ in range(len(queue)):
                task = queue.popleft()
                if task.can_exec(worker.arch):
                    return task
                queue.append(task)
        return None

    # -- fault hooks ----------------------------------------------------------

    def on_task_failed(self, task: Task, worker: Worker) -> None:
        """The planned completion charged into the worker's availability
        will never happen; let the estimate re-anchor on the clock."""
        if self._expected_free[worker.wid] < self.ctx.now:
            self._expected_free[worker.wid] = self.ctx.now

    def on_worker_failed(self, worker: Worker) -> list[Task]:
        """Push-time assignment binds tasks to workers: hand every task
        queued on the dead worker back to the engine for re-pushing
        (push re-runs the fitness over the surviving workers)."""
        queue = self._queues.get(worker.wid)
        if not queue:
            return []
        orphans = list(queue)
        queue.clear()
        return orphans
