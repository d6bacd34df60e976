"""Fault injection: the failure model the resilient engine runs against.

Production runtimes like StarPU face three broad failure classes that a
scheduler study must survive:

* **transient task failures** — a kernel crashes or produces a result
  that fails its check (soft errors, ECC events, driver hiccups); the
  attempt is wasted but the worker survives and the task can be retried;
* **fail-stop worker failures** — a processing unit drops off (GPU
  falls off the bus, a core is fenced); its queued and running work must
  be recovered and, for a device memory, its replicas are gone;
* **link degradation** — an interconnect is throttled for a while
  (thermal events, congestion from co-located jobs), multiplying
  transfer costs during the window.

:class:`FaultModel` describes all three declaratively and samples them
from its *own* seeded RNG stream, so (a) a run with a fault model is
deterministic given the seed, and (b) a run *without* one is bit-identical
to the fault-free engine — the engine's execution-noise RNG is never
touched by fault sampling.

:class:`FaultInjector` is the engine's fault run hook: it samples every
attempt and owns the three fault event kinds and their recovery.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

import numpy as np

from repro.obs.events import TaskFault, TaskRetryScheduled, WorkerDeath
from repro.runtime.events import TASK_FAILURE, TASK_RETRY, WORKER_FAILURE, RunOps
from repro.runtime.task import TaskState
from repro.utils.validation import (
    DataLossError,
    RetryExhaustedError,
    SchedulingError,
    ValidationError,
    check_in_range,
    check_non_negative,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.engine import SchedContext
    from repro.runtime.platform_config import Platform
    from repro.runtime.stf import Program
    from repro.runtime.task import Task
    from repro.runtime.worker import Worker
    from repro.schedulers.base import Scheduler


@dataclass(frozen=True)
class LinkDegradation:
    """A window during which transfer costs are multiplied.

    ``src``/``dst`` restrict the window to one directed link; ``None``
    matches every link (a machine-wide interconnect brown-out).
    """

    start_us: float
    end_us: float
    factor: float
    src: int | None = None
    dst: int | None = None

    def __post_init__(self) -> None:
        check_non_negative("start_us", self.start_us)
        if self.end_us <= self.start_us:
            raise ValidationError(
                f"degradation window must have end > start, got "
                f"[{self.start_us}, {self.end_us}]"
            )
        if self.factor <= 0:
            raise ValidationError(f"degradation factor must be > 0, got {self.factor}")

    def matches(self, src: int, dst: int) -> bool:
        """Whether this window applies to the directed link src -> dst."""
        return (self.src is None or self.src == src) and (
            self.dst is None or self.dst == dst
        )


@dataclass
class FaultStats:
    """Fault bookkeeping attached to :class:`~repro.runtime.engine.SimResult`.

    ``wasted_exec_us`` is worker time burned on attempts that failed;
    ``lost_replica_bytes`` counts replicas destroyed on dead memory nodes
    (they must be re-fetched from surviving copies, or the run aborts
    with :class:`~repro.utils.validation.DataLossError`).
    """

    task_failures: int = 0
    retries: int = 0
    worker_failures: int = 0
    tasks_recovered: int = 0
    lost_replica_bytes: int = 0
    wasted_exec_us: float = 0.0

    def as_dict(self) -> dict[str, float]:
        """Flat mapping for reporting tables."""
        return {f.name: float(getattr(self, f.name)) for f in fields(self)}


def parse_kill_spec(spec: str) -> tuple[int, float]:
    """Parse a ``WID@TIME`` CLI kill spec into ``(wid, time_us)``."""
    try:
        wid_part, time_part = spec.split("@", 1)
        wid = int(wid_part)
        time_us = float(time_part)
    except ValueError as exc:
        raise ValidationError(
            f"kill spec must look like WID@TIME_US (e.g. 2@15000), got {spec!r}"
        ) from exc
    if wid < 0:
        raise ValidationError(f"kill spec worker id must be >= 0, got {wid}")
    check_non_negative("kill spec time", time_us)
    return wid, time_us


def parse_fault_rates(spec: str) -> float | dict[str, float]:
    """Parse a CLI failure-rate spec.

    Either a bare probability (``"0.05"``, applied to every architecture)
    or comma-separated per-arch rates (``"cuda=0.1,cpu=0.01"``).
    """
    try:
        return check_in_range("fault rate", float(spec), 0.0, 1.0)
    except ValueError:
        pass
    rates: dict[str, float] = {}
    for part in spec.split(","):
        arch, _, value = part.partition("=")
        arch = arch.strip()
        if not arch or not value:
            raise ValidationError(
                f"fault-rate spec must be a probability or arch=p[,arch=p], got {spec!r}"
            )
        rates[arch] = check_in_range(f"fault rate for {arch}", float(value), 0.0, 1.0)
    return rates


class FaultModel:
    """Declarative, seeded description of the faults to inject.

    Parameters
    ----------
    task_failure_rate:
        Probability that one execution attempt fails, either a single
        probability for every architecture or a per-arch mapping
        (architectures absent from the mapping never fail).
    worker_kills:
        Scripted fail-stop failures: ``(wid, time_us)`` pairs (or a
        mapping ``wid -> time_us``). Each worker dies at most once.
    worker_mtbf_us:
        Mean time between fail-stop failures per worker; when set, each
        worker additionally draws an exponential death time at run start.
        ``None`` (default) disables sampled deaths.
    link_degradations:
        :class:`LinkDegradation` windows applied to matching links.
    max_retries:
        Retry cap per task; exceeding it raises
        :class:`~repro.utils.validation.RetryExhaustedError`.
    retry_backoff_us:
        Base of the exponential virtual-time backoff: the n-th retry of a
        task is re-enqueued ``retry_backoff_us * 2**(n-1)`` after failing.
    seed:
        Seed of the model's private RNG stream.
    """

    def __init__(
        self,
        *,
        task_failure_rate: float | Mapping[str, float] = 0.0,
        worker_kills: Mapping[int, float] | Iterable[tuple[int, float]] = (),
        worker_mtbf_us: float | None = None,
        link_degradations: Iterable[LinkDegradation] = (),
        max_retries: int = 3,
        retry_backoff_us: float = 50.0,
        seed: int = 0,
    ) -> None:
        if isinstance(task_failure_rate, Mapping):
            self.task_failure_rate: float | dict[str, float] = {
                arch: check_in_range(f"task_failure_rate[{arch}]", rate, 0.0, 1.0)
                for arch, rate in task_failure_rate.items()
            }
        else:
            self.task_failure_rate = check_in_range(
                "task_failure_rate", task_failure_rate, 0.0, 1.0
            )
        kills = dict(worker_kills) if isinstance(worker_kills, Mapping) else {}
        if not isinstance(worker_kills, Mapping):
            for wid, time_us in worker_kills:
                if wid in kills:
                    raise ValidationError(f"worker {wid} killed twice")
                kills[wid] = time_us
        for wid, time_us in kills.items():
            if wid < 0:
                raise ValidationError(f"worker id must be >= 0, got {wid}")
            check_non_negative(f"kill time for worker {wid}", time_us)
        self.worker_kills: dict[int, float] = kills
        if worker_mtbf_us is not None and worker_mtbf_us <= 0:
            raise ValidationError(f"worker_mtbf_us must be > 0, got {worker_mtbf_us}")
        self.worker_mtbf_us = worker_mtbf_us
        self.link_degradations: tuple[LinkDegradation, ...] = tuple(link_degradations)
        if max_retries < 0:
            raise ValidationError(f"max_retries must be >= 0, got {max_retries}")
        self.max_retries = int(max_retries)
        self.retry_backoff_us = check_non_negative("retry_backoff_us", retry_backoff_us)
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)

    # -- per-run lifecycle -------------------------------------------------

    def reset(self) -> None:
        """Re-seed the private stream so every run replays identically."""
        self._rng = np.random.default_rng(self.seed)

    def failure_schedule(self, platform: "Platform") -> list[tuple[float, int]]:
        """Fail-stop events for one run: sorted ``(time_us, wid)`` pairs.

        Scripted kills are taken as-is (ids beyond the platform are
        rejected); MTBF-sampled deaths draw one exponential per worker
        from the model's stream, in worker-id order, so the schedule is a
        pure function of the seed.
        """
        n = len(platform.workers)
        for wid in self.worker_kills:
            if wid >= n:
                raise ValidationError(
                    f"cannot kill worker {wid}: platform {platform.name!r} "
                    f"has workers 0..{n - 1}"
                )
        schedule = dict(self.worker_kills)
        if self.worker_mtbf_us is not None:
            for worker in platform.workers:
                death = float(self._rng.exponential(self.worker_mtbf_us))
                prior = schedule.get(worker.wid)
                if prior is None or death < prior:
                    schedule[worker.wid] = death
        return sorted((t, wid) for wid, t in schedule.items())

    # -- transient failures --------------------------------------------------

    def arch_failure_rate(self, arch: str) -> float:
        """Per-attempt failure probability on architecture ``arch``."""
        if isinstance(self.task_failure_rate, dict):
            return self.task_failure_rate.get(arch, 0.0)
        return self.task_failure_rate

    def attempt_failure(self, task: "Task", worker: "Worker") -> float | None:
        """Sample one execution attempt of ``task`` on ``worker``.

        Returns ``None`` for success, or the fraction of the execution
        (in ``(0, 1]``) after which the failure manifests. No RNG draw
        happens when the architecture's rate is zero, so a zero-rate
        model injects exactly nothing.
        """
        rate = self.arch_failure_rate(worker.arch)
        if rate <= 0.0:
            return None
        if self._rng.random() >= rate:
            return None
        # Failures rarely manifest instantly; burn at least 10% of the
        # attempt so wasted-time accounting is never degenerate.
        return 0.1 + 0.9 * float(self._rng.random())

    def backoff_us(self, n_failures: int) -> float:
        """Virtual-time backoff before the ``n_failures``-th retry."""
        return self.retry_backoff_us * (2.0 ** max(0, n_failures - 1))

    # -- link degradation ------------------------------------------------------

    def degradation_windows(self, src: int, dst: int) -> tuple[tuple[float, float, float], ...]:
        """The ``(start, end, factor)`` windows applying to one link."""
        return tuple(
            (d.start_us, d.end_us, d.factor)
            for d in self.link_degradations
            if d.matches(src, dst)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FaultModel rate={self.task_failure_rate!r} "
            f"kills={self.worker_kills!r} mtbf={self.worker_mtbf_us!r} "
            f"degradations={len(self.link_degradations)} seed={self.seed}>"
        )


class FaultInjector:
    """The engine's fault run hook: one :class:`FaultModel` for one run.

    :meth:`begin` gets the run's :class:`~repro.runtime.events.RunOps`
    once; :meth:`attempt` samples each execution attempt; ``handlers``
    maps the three fault event kinds to their handlers. Deaths are
    recorded on the scheduler context (``SchedContext.death_us``).
    """

    #: The :class:`~repro.runtime.engine.SimResult` field :meth:`finalize` fills.
    result_field = "faults"

    def __init__(
        self, model: FaultModel, program: "Program", scheduler: "Scheduler",
        ctx: "SchedContext", emit: Callable | None = None,
    ) -> None:
        self.model = model
        self.program = program
        self.platform = ctx.platform
        self.scheduler = scheduler
        self.ctx = ctx
        self.emit = emit
        self.counts = FaultStats()
        #: Transient-failure count per task id (for the retry cap).
        self.n_failed: dict[int, int] = {}
        self.handlers = {
            TASK_FAILURE: self.on_task_failure,
            TASK_RETRY: self.on_task_retry,
            WORKER_FAILURE: self.on_worker_failure,
        }

    def begin(self, ops: RunOps) -> None:
        """Bind the run's operations, re-seed the model, install its link
        degradations and post its worker deaths."""
        self.ops = ops
        self.model.reset()
        for link in self.platform.transfers.links():
            link.degradations = self.model.degradation_windows(link.src, link.dst)
        for time_us, wid in self.model.failure_schedule(self.platform):
            ops.post(time_us, WORKER_FAILURE, wid)

    def attempt(
        self, task: "Task", worker: "Worker", start: float, duration: float
    ) -> float | None:
        """Sample one attempt; on failure post its ``TASK_FAILURE`` in
        place of the completion and return the failure time."""
        frac = self.model.attempt_failure(task, worker)
        if frac is None:
            return None
        fail_at = start + duration * frac
        self.ops.post(fail_at, TASK_FAILURE, (worker, task))
        return fail_at

    def rollback(self, task: "Task", worker: "Worker") -> None:
        """Undo an attempt's take: unpin its inputs, clear its scratch and
        return it to SUBMITTED. No MSI invalidation and no perfmodel
        record: it leaves no trace beyond the link time it consumed."""
        for handle in task.sched.get("_pinned", ()):
            self.platform.transfers.unpin(handle, worker.memory_node)
        task.sched.clear()
        task.state = TaskState.SUBMITTED

    def on_task_failure(self, now: float, payload) -> None:
        worker, task = payload
        if worker.wid in self.ctx.death_us:
            return  # the worker's death already rolled the task back
        model, counts = self.model, self.counts
        # Wasted burn is charged like useful work; any booking
        # (resource, power) lasts to its planned end (conservative).
        _, burned = self.ops.end_attempt(worker, now)
        counts.task_failures += 1
        counts.wasted_exec_us += burned
        self.rollback(task, worker)
        self.scheduler.on_task_failed(task, worker)
        self.n_failed[task.tid] = n_failures = self.n_failed.get(task.tid, 0) + 1
        if self.emit is not None:
            self.emit(TaskFault(now, task.tid, worker.wid, burned, n_failures))
        if n_failures > model.max_retries:
            raise RetryExhaustedError(
                f"{task.name} failed {n_failures} attempts, exceeding "
                f"the fault model's max_retries={model.max_retries}"
            )
        counts.retries += 1
        self.ops.post(now + model.backoff_us(n_failures), TASK_RETRY, task)
        self.ops.request(worker, now)

    def on_task_retry(self, now: float, task: "Task") -> None:
        # Skip when a control-plane eviction cancelled the task while its
        # backoff was pending (nothing else re-pushes it meanwhile).
        if task.state is TaskState.SUBMITTED and task.n_unfinished_preds == 0:
            if self.emit is not None:
                self.emit(TaskRetryScheduled(now, task.tid, self.n_failed[task.tid]))
            self.ops.push_ready(task)
            self.ops.wake(now)

    def on_worker_failure(self, now: float, wid: int) -> None:
        ctx, counts, ops = self.ctx, self.counts, self.ops
        worker = self.platform.workers[wid]
        archs_before = ctx.available_archs
        ctx.mark_worker_dead(worker)
        counts.worker_failures += 1
        recovered: list["Task"] = []
        running, burned = ops.end_attempt(worker, now)
        if running is not None:
            counts.wasted_exec_us += burned
            self.rollback(running, worker)
            recovered.append(running)
        staged = ops.unstage(worker)
        if staged is not None:
            self.rollback(staged, worker)
            recovered.append(staged)
        # Orphans queued inside the scheduler for the dead worker.
        for orphan in self.scheduler.on_worker_failed(worker):
            if orphan.state is TaskState.READY:
                orphan.sched.clear()
                orphan.state = TaskState.SUBMITTED
                recovered.append(orphan)
        counts.tasks_recovered += len(recovered)
        if self.emit is not None:
            self.emit(WorkerDeath(now, wid, worker.name, len(recovered)))
        # A device memory dies with its last worker: every replica it
        # hosted is gone. Sole copies that an unfinished task still needs
        # to read are unrecoverable.
        tasks = self.program.tasks
        mem = self.platform.nodes[worker.memory_node]
        if mem.kind == "gpu" and not ctx.workers_of_node(mem.mid):
            still_read = {
                handle.hid
                for t in tasks
                if t.state is not TaskState.DONE
                and t.state is not TaskState.CANCELLED
                for handle, mode in t.accesses
                if mode.is_read
            }
            for handle in self.program.handles:
                if not handle.is_valid_on(mem.mid):
                    continue
                sole = len(handle.valid_nodes) == 1
                if sole and handle.size > 0 and handle.hid in still_read:
                    raise DataLossError(
                        f"worker failure of {worker.name} at t={now:.1f}us "
                        f"destroyed the only replica of {handle.label} "
                        f"({handle.size} bytes) on node {mem.name!r}, "
                        "still needed by unfinished tasks"
                    )
                counts.lost_replica_bytes += handle.size
                self.platform.transfers.drop_replica(handle, mem.mid)
        # An architecture vanished: cached best-arch choices are stale,
        # and some tasks may have become unschedulable.
        if ctx.available_archs != archs_before:
            for t in tasks:
                if t.state is TaskState.DONE or t.state is TaskState.CANCELLED:
                    continue
                t.sched.pop("_best_arch", None)
                if not any(t.can_exec(a) for a in ctx.available_archs):
                    raise SchedulingError(
                        f"worker failure of {worker.name} left {t.name} "
                        f"with no executable architecture among "
                        f"{ctx.available_archs}"
                    )
        for t in recovered:
            ops.push_ready(t)
        ops.wake(now)

    def finalize(self, makespan: float, death_us: Mapping[int, float]) -> FaultStats:
        """The run's :class:`FaultStats`."""
        return self.counts


__all__ = [
    "FaultInjector",
    "FaultModel",
    "FaultStats",
    "LinkDegradation",
    "parse_fault_rates",
    "parse_kill_spec",
]
