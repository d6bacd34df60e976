"""Execution traces: per-task records, idle accounting, ASCII Gantt.

This is the repository's StarVZ-lite: enough trace tooling to reproduce
the elements of the paper's Fig. 4 — per-resource idle percentages, the
makespan, and the *practical critical path* (the chain of records in
which each task was the one actually delaying the next).

A :class:`Trace` is a view of a run's event stream: build one with
:func:`repro.obs.export.trace_from_events` from a run recorded at
``record_level="tasks"`` (or from a JSONL dump of one).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.runtime.task import Task
from repro.runtime.worker import Worker


def worker_idle_fraction(
    occupied: float, makespan: float, death: float | None = None
) -> float:
    """Fraction of a worker's lifetime spent neither executing nor
    waiting on data; ``occupied`` is its busy plus data-wait time.

    A worker lost to a fail-stop failure at ``death`` only existed up to
    then; judging it against the full makespan would read an early
    casualty as ~100% idle. Per-architecture means of this value are
    the idle percentages of Fig. 4.
    """
    horizon = makespan if death is None else min(makespan, death)
    if horizon <= 0:
        return 0.0
    return max(0.0, 1.0 - occupied / horizon)


@dataclass(frozen=True)
class TaskRecord:
    """One executed task: who ran it and when."""

    tid: int
    type_name: str
    worker: int
    node: int
    pop_time: float
    start: float
    end: float

    @property
    def exec_time(self) -> float:
        """Pure execution duration."""
        return self.end - self.start

    @property
    def wait_time(self) -> float:
        """Time between assignment and start (data transfers)."""
        return self.start - self.pop_time


@dataclass(frozen=True)
class TransferRecord:
    """One committed data movement."""

    hid: int
    src: int
    dst: int
    nbytes: int
    start: float
    end: float


@dataclass
class Trace:
    """The task (and transfer) records of one run, in completion order."""

    workers: list[Worker]
    task_records: list[TaskRecord] = field(default_factory=list)
    transfer_records: list[TransferRecord] = field(default_factory=list)
    #: Fail-stop death time per worker id.
    death_us: dict[int, float] = field(default_factory=dict)

    # -- aggregate metrics ---------------------------------------------------

    def makespan(self) -> float:
        """End time of the last task (0 for an empty trace)."""
        return max((r.end for r in self.task_records), default=0.0)

    def busy_time(self, wid: int) -> float:
        """Total execution time of worker ``wid``."""
        return sum(r.exec_time for r in self.task_records if r.worker == wid)

    def wait_time(self, wid: int) -> float:
        """Total transfer-wait time of worker ``wid``."""
        return sum(r.wait_time for r in self.task_records if r.worker == wid)

    def idle_fraction(self, wid: int) -> float:
        """Idle fraction of worker ``wid``, the engine's formula
        (:func:`worker_idle_fraction`). Records are completed attempts
        only, so under faults, where the engine also counts aborted
        attempts as occupied, this can exceed the engine's figure."""
        return worker_idle_fraction(
            self.busy_time(wid) + self.wait_time(wid),
            self.makespan(),
            self.death_us.get(wid),
        )

    def per_worker_summary(self) -> list[dict[str, float | int | str]]:
        """One summary row per worker: busy/wait/idle breakdown."""
        rows: list[dict[str, float | int | str]] = []
        for worker in self.workers:
            rows.append(
                {
                    "worker": worker.name,
                    "arch": worker.arch,
                    "n_tasks": sum(1 for r in self.task_records if r.worker == worker.wid),
                    "busy_us": self.busy_time(worker.wid),
                    "wait_us": self.wait_time(worker.wid),
                    "idle_frac": self.idle_fraction(worker.wid),
                }
            )
        return rows

    def record_of(self, tid: int) -> TaskRecord | None:
        """The execution record of task ``tid`` if it ran."""
        return next((r for r in self.task_records if r.tid == tid), None)

    # -- practical critical path ----------------------------------------------

    def practical_critical_path(self, tasks: list[Task]) -> list[TaskRecord]:
        """The chain of records that actually determined the makespan.

        Starting from the last-finishing task, repeatedly step to the
        record that delayed the current one the most: either its
        latest-finishing DAG predecessor or the task that occupied the
        same worker immediately before it — whichever ended last. This is
        the red-bordered chain highlighted in the paper's Fig. 4.
        """
        if not self.task_records:
            return []
        by_tid = {t.tid: t for t in tasks}
        record_of = {r.tid: r for r in self.task_records}
        # Previous record on the same worker, by end time.
        per_worker: dict[int, list[TaskRecord]] = {}
        for rec in self.task_records:
            per_worker.setdefault(rec.worker, []).append(rec)
        for recs in per_worker.values():
            recs.sort(key=lambda r: r.start)
        prev_on_worker: dict[int, TaskRecord] = {}
        for recs in per_worker.values():
            for earlier, later in zip(recs, recs[1:]):
                prev_on_worker[later.tid] = earlier

        current = max(self.task_records, key=lambda r: r.end)
        chain = [current]
        while True:
            task = by_tid.get(current.tid)
            candidates: list[TaskRecord] = []
            if task is not None:
                candidates.extend(
                    record_of[p.tid] for p in task.preds if p.tid in record_of
                )
            worker_prev = prev_on_worker.get(current.tid)
            if worker_prev is not None:
                candidates.append(worker_prev)
            candidates = [c for c in candidates if c.end <= current.start + 1e-9]
            if not candidates:
                break
            blocker = max(candidates, key=lambda r: r.end)
            # Stop when nothing meaningfully delayed the current record.
            if blocker.end <= 1e-9 and current.start <= 1e-9:
                break
            chain.append(blocker)
            current = blocker
        chain.reverse()
        return chain

    # -- visualization -----------------------------------------------------------

    def gantt_ascii(self, width: int = 100) -> str:
        """A fixed-width ASCII Gantt chart, one row per worker.

        Each column covers ``makespan / width``; a cell shows the first
        letter of the task type executing there, ``.`` when idle and
        ``~`` when waiting for data.
        """
        span = self.makespan()
        if span <= 0 or not self.workers:
            return "(empty trace)"
        width = max(1, int(width))
        lines: list[str] = []
        name_width = max(len(w.name) for w in self.workers)
        for worker in self.workers:
            cells = ["."] * width
            for rec in self.task_records:
                if rec.worker != worker.wid:
                    continue
                lo = int(rec.pop_time / span * width)
                mid = int(rec.start / span * width)
                hi = int(rec.end / span * width)
                hi = min(max(hi, mid + 1), width)
                for i in range(lo, min(mid, width)):
                    cells[i] = "~"
                letter = rec.type_name[0].upper() if rec.type_name else "#"
                for i in range(mid, hi):
                    cells[i] = letter
            lines.append(f"{worker.name:>{name_width}} |{''.join(cells)}|")
        pad = max(0, width - 12)
        lines.append(f"{'':>{name_width}}  0{'':>{pad}}{span:10.0f}us")
        return "\n".join(lines)
