"""Discrete-event simulation engine driving a scheduler over a program.

The engine reproduces the two StarPU hook points the paper's Section IV
describes:

* **PUSH** — when a task's last dependency completes, the engine calls
  ``scheduler.push(task)``;
* **POP** — when a worker is idle (initially, after each completion, and
  whenever new work appears), the engine calls ``scheduler.pop(worker)``.

Workers are **pipelined** like StarPU's: while executing a task, a worker
pops and stages its next task so the staged task's data transfers overlap
the current execution (StarPU's worker lookahead / prefetch-on-pop). The
pipeline can be disabled to study the unoverlapped behaviour.

Everything else (data transfers with per-link contention, MSI replica
management, history feedback into the performance model) happens inside
the engine so every scheduler is compared under identical runtime
behaviour. The engine records what ran only as the
:mod:`repro.obs` event stream (``record_level="tasks"``);
:func:`repro.obs.export.trace_from_events` turns it into a
:class:`~repro.runtime.trace.Trace`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.obs.bus import Observability
from repro.obs.events import (
    BatchScheduled,
    JobDone,
    JobSubmit,
    RecordLevel,
    TaskEnd,
    TaskPop,
    TaskReady,
    TaskStage,
    TaskStart,
    TaskSubmit,
)
from repro.obs.metrics import MetricsSnapshot
from repro.runtime.events import (
    BATCH_FLUSH,
    JOB_ARRIVAL,
    TASK_COMPLETION,
    WORKER_REQUEST,
    RunOps,
)
from repro.runtime.faults import FaultInjector, FaultModel, FaultStats
from repro.runtime.overhead import OverheadLedger, SchedOverheadModel
from repro.runtime.perfmodel import AnalyticalPerfModel
from repro.runtime.platform_config import Platform
from repro.runtime.power import EnergyReport, PowerLedger, PowerStateModel
from repro.runtime.resources import ResourceLedger, ResourceProtocol
from repro.runtime.stf import Program
from repro.runtime.task import Task, TaskState
from repro.runtime.trace import worker_idle_fraction
from repro.runtime.worker import Worker
from repro.utils.rng import make_rng
from repro.utils.validation import (
    DeadlockError,
    SchedulingError,
    invariants_enabled,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.control.plane import ControlConfig
    from repro.runtime.perfmodel import PerfModel
    from repro.schedulers.base import Scheduler


class SchedContext:
    """The scheduler's window into the runtime.

    Exposes exactly what StarPU exposes to its scheduling policies:
    execution-time estimates δ(t, a), worker/memory topology, current
    data residency, transfer-cost estimates and a prefetch request hook.
    """

    def __init__(self, platform: Platform, perfmodel: "PerfModel") -> None:
        self.platform = platform
        self.perfmodel = perfmodel
        self.reset()

    def reset(self) -> None:
        """Per-run reset: clock, liveness record and live-worker views."""
        self.now = 0.0
        #: The run's one liveness record: fail-stop death time per worker id.
        self.death_us: dict[int, float] = {}
        self._build_views()

    # -- liveness ----------------------------------------------------------

    def mark_worker_dead(self, worker: Worker) -> None:
        """Record ``worker``'s fail-stop death at the current clock and
        drop it from every live-worker view."""
        self.death_us[worker.wid] = self.now
        self._build_views()

    def _build_views(self) -> None:
        """The live-worker views: the platform's own lists until a worker
        dies, filtered copies rebuilt once per death after that."""
        platform = self.platform
        dead = self.death_us

        def live(workers: list[Worker]) -> list[Worker]:
            return [w for w in workers if w.wid not in dead] if dead else workers

        #: All live workers of the platform.
        self.workers: list[Worker] = live(platform.workers)
        self._of_arch = {a: live(platform.workers_of_arch(a)) for a in platform.archs}
        self._of_node = {
            n.mid: live(platform.workers_of_node(n.mid)) for n in platform.nodes
        }
        #: Architectures that both exist on the platform and have live workers.
        self.available_archs: tuple[str, ...] = tuple(
            a for a in platform.archs if self._of_arch[a]
        )

    # -- estimates ----------------------------------------------------------

    def estimate(self, task: Task, arch: str) -> float:
        """δ(t, a): estimated execution time of ``task`` on ``arch``."""
        return self.perfmodel.estimate(task, arch)

    def exec_archs(self, task: Task) -> list[str]:
        """Available architectures with an implementation of ``task``."""
        return [a for a in self.available_archs if task.can_exec(a)]

    def can_exec(self, task: Task, arch: str) -> bool:
        """Whether ``task`` can run on ``arch`` on this platform."""
        return task.can_exec(arch) and arch in self.available_archs

    def best_arch(self, task: Task) -> str:
        """The architecture with the smallest δ(t, a) (cached per task)."""
        cached = task.sched.get("_best_arch")
        if cached is None:
            archs = self.exec_archs(task)
            if not archs:
                raise SchedulingError(f"{task.name} has no executable architecture")
            cached = min(archs, key=lambda a: self.estimate(task, a))
            task.sched["_best_arch"] = cached
        return cached

    def second_best_arch(self, task: Task) -> str | None:
        """The second-fastest architecture, or None if only one exists."""
        archs = self.exec_archs(task)
        if len(archs) < 2:
            return None
        best = self.best_arch(task)
        rest = [a for a in archs if a != best]
        return min(rest, key=lambda a: self.estimate(task, a))

    # -- data residency -------------------------------------------------------

    def transfer_estimate(self, task: Task, node: int) -> float:
        """Estimated time to stage ``task``'s missing inputs onto ``node``.

        Transfers to one node serialize on its inbound link, so the total
        is the largest single estimate (which includes the current queue
        wait once) plus the wire time of the remaining handles.
        """
        transfers = self.platform.transfers
        worst = 0.0
        wire_sum = 0.0
        worst_wire = 0.0
        for handle, mode in task.accesses:
            if mode.is_read and handle.size > 0:
                est = transfers.estimate_fetch(handle, node, self.now)
                if est <= 0.0:
                    continue
                wire = transfers.wire_estimate(handle, node)
                wire_sum += wire
                if est > worst:
                    worst = est
                    worst_wire = wire
        return worst + (wire_sum - worst_wire)

    def bytes_on_node(self, task: Task, node: int) -> int:
        """Bytes of ``task``'s data already valid on ``node``."""
        return sum(
            handle.size
            for handle, _mode in task.accesses
            if handle.is_valid_on(node)
        )

    def prefetch(self, task: Task, node: int) -> None:
        """Start staging ``task``'s read data onto ``node`` right now.

        Used by push-time-assignment schedulers (the dm family): data
        movement overlaps the wait in the worker's queue.
        """
        transfers = self.platform.transfers
        for handle, mode in task.accesses:
            if mode.is_read and handle.size > 0:
                transfers.fetch(handle, node, self.now, prefetch=True)

    # -- topology shortcuts -----------------------------------------------------

    def workers_of_arch(self, arch: str) -> list[Worker]:
        """Live workers of one architecture."""
        return self._of_arch.get(arch, [])

    def workers_of_node(self, node: int) -> list[Worker]:
        """Live workers computing from memory node ``node``."""
        return self._of_node.get(node, [])

    def n_workers(self, arch: str | None = None) -> int:
        """Live worker count, optionally per architecture."""
        if arch is None:
            return len(self.workers)
        return len(self.workers_of_arch(arch))


@dataclass
class SimResult:
    """Outcome of one simulated execution.

    Aggregates only; per-task records live in :attr:`events` (set by
    ``record_level``), from which
    :func:`~repro.obs.export.trace_from_events` builds a
    :class:`~repro.runtime.trace.Trace`.
    """

    makespan: float
    n_tasks: int
    total_flops: float
    bytes_transferred: int
    exec_time_by_arch: dict[str, float]
    idle_frac_by_arch: dict[str, float]
    forced_pops: int
    scheduler_stats: dict[str, float] = field(default_factory=dict)
    #: Fault bookkeeping; ``None`` when the run had no fault model.
    faults: FaultStats | None = None
    #: Structured event stream; ``None`` unless ``record_level`` enabled it.
    events: tuple | None = None
    #: End-of-run metrics snapshot; ``None`` unless ``record_level`` enabled it.
    metrics: MetricsSnapshot | None = None
    #: Tasks cancelled by the control plane (shed/evicted jobs); 0 when
    #: no control plane was attached.
    n_cancelled: int = 0
    #: Batch-mode provenance (flush count, batched tasks, max/mean batch
    #: size); ``None`` on the per-event path.
    batch_stats: dict[str, float] | None = None
    #: Every run hook's ``stats()`` merged in hook order (overhead charges,
    #: resource grants/blocking/inversions, power admissions/throttles/busy
    #: time); ``None`` unless a ledger (overhead, resources, power) ran.
    rt_stats: dict[str, float] | None = None
    #: Per-worker busy microseconds, indexed by dense worker id; always
    #: populated (energy accounting clamps each worker's idle draw to
    #: its live horizon rather than the whole makespan).
    busy_us_by_worker: tuple[float, ...] = ()
    #: Fail-stop death times per worker id; empty without worker faults.
    death_us_by_worker: dict[int, float] = field(default_factory=dict)
    #: Energy accounting; ``None`` unless a power model was attached.
    energy: EnergyReport | None = None
    #: The finished admission control plane (:mod:`repro.control`: job
    #: records and counters); ``None`` unless a control config was attached.
    control: object | None = None

    @property
    def gflops(self) -> float:
        """Achieved GFlop/s over the whole run."""
        if self.makespan <= 0:
            return 0.0
        return self.total_flops / (self.makespan * 1e-6) / 1e9


class Simulator:
    """Runs a :class:`Program` on a :class:`Platform` under a scheduler.

    :meth:`run` is a core event loop plus per-run *hooks*: the
    ``overhead``, ``resources`` and ``power`` ledgers, the
    ``fault_model``'s :class:`~repro.runtime.faults.FaultInjector` and
    the ``control`` config's admission plane, reached only through
    per-point hook tuples and a ``handlers`` map of the event kinds a
    hook owns. Without them every tuple is empty (``DESIGN.md`` §4).

    Parameters
    ----------
    platform:
        The machine model.
    scheduler:
        Any :class:`repro.schedulers.base.Scheduler`.
    perfmodel:
        Source of δ(t, a) estimates and actual execution times.
    seed:
        RNG seed for execution noise.
    pipeline:
        Enable StarPU-style worker lookahead: each worker stages its next
        task while executing, overlapping the staged task's transfers.
    submission_window:
        Maximum number of submitted-but-unfinished tasks, mirroring
        StarPU's task-window throttling of the STF main thread
        (``STARPU_LIMIT_MAX_SUBMITTED_TASKS``). ``None`` (default)
        submits the whole program ahead; small windows reveal the DAG
        progressively, shrinking every scheduler's lookahead.
    fault_model:
        Optional :class:`~repro.runtime.faults.FaultModel` injecting
        transient task failures, fail-stop worker failures and link
        degradation through the fault hook. ``None`` (default) attaches
        no hook; a zero-rate model never fails an attempt, and neither
        touches the execution-noise RNG.
    record_level:
        :class:`~repro.obs.events.RecordLevel` (or its name) gating the
        observability subsystem: ``"off"`` (default) records nothing and
        keeps the simulation bit-identical to a build without the
        subsystem; ``"tasks"`` publishes lifecycle/transfer/fault events
        and metrics; ``"decisions"`` adds scheduler decision provenance.
        The bound :class:`~repro.obs.bus.Observability` instance is
        exposed as ``self.obs``; the captured stream and metrics
        snapshot land on :class:`SimResult`. The stream is the only
        record of what ran: ``trace_from_events(res.events,
        sim.platform.workers)`` builds the run's
        :class:`~repro.runtime.trace.Trace` (Gantt, per-worker idle,
        practical critical path).
    check_invariants:
        Attach the :mod:`repro.check` validator, which re-verifies MSI
        coherence, link clocks, task conservation and the scheduler's
        own invariants after every event (raising
        :class:`~repro.utils.validation.InvariantError` on violation).
        ``None`` (default) defers to the ``REPRO_CHECK_INVARIANTS``
        environment variable; when off, the engine performs exactly one
        extra local-variable test per event and stays bit-identical.
    control:
        Optional :class:`~repro.control.ControlConfig` attaching the
        admission control plane, the last run hook. Requires a merged
        job-stream program: the plane accepts, delays or sheds each job
        as it is revealed and evicts best-effort jobs for guaranteed
        ones; it lands on ``SimResult.control``. ``None`` (default)
        keeps the uncontrolled fast path.
    batch_step:
        Batch-mode scheduling (Firmament-style): instead of one
        ``scheduler.push()`` per ready task, reveals buffer and are
        handed to the scheduler as one ``push_batch()`` at most
        ``batch_step`` microseconds after the first buffered reveal.
        ``None`` (default) keeps the exact per-event path. With
        ``batch_drain_on_idle`` (the default) the batch also drains the
        moment any worker asks for work, which keeps the run
        bit-identical to the per-event path for schedulers whose
        ``push`` is time-invariant (MultiPrio with stable estimates,
        eager, ws, multiqueue — not the dm family, which prefetches and
        snapshots ETAs at push time).
    batch_drain_on_idle:
        Adaptive drain trigger for batch mode: flush the pending batch
        before any worker pop, so no worker ever idles on buffered
        work. ``False`` gives pure step-boundary batching (workers may
        idle up to ``batch_step`` — the classic batch-scheduler
        trade-off).
    overhead:
        Optional :class:`~repro.runtime.overhead.SchedOverheadModel`
        charging every scheduling decision (push / pop / batch flush)
        to a virtual scheduler core in *simulated* time: pops delay the
        popped task until the decision is paid for, and decisions
        serialize on the core. ``None`` (default) keeps decisions free;
        an all-zero model is bit-identical to ``None``.
    resources:
        Optional :class:`~repro.runtime.resources.ResourceProtocol`
        arbitrating ``Task.resources`` locks: tasks sharing a resource
        never overlap, waits behind lower-priority holders emit
        :class:`~repro.obs.events.PriorityInversion` events, and
        ``mode="ceiling"`` adds priority-ceiling avoidance blocking.
        ``None`` (default) ignores resource names entirely.
    power:
        Optional :class:`~repro.runtime.power.PowerStateModel` attaching
        the power subsystem: executions run in DVFS power states (the
        fastest runnable state that fits under the worker's node
        power cap — downgrades and delayed starts emit
        :class:`~repro.obs.events.PowerCapThrottled`), a state's
        ``speed`` scales the sampled execution duration, and
        ``SimResult.energy`` carries the per-worker/per-arch joule
        accounting. ``None`` (default) keeps the engine power-blind; an
        uncapped model whose fastest state is full speed is
        bit-identical to ``None`` (the ``power.noop`` differential
        enforces this).
    """

    def __init__(
        self,
        platform: Platform,
        scheduler: "Scheduler",
        perfmodel: "PerfModel",
        *,
        seed: int | np.random.Generator | None = None,
        pipeline: bool = True,
        submission_window: int | None = None,
        fault_model: FaultModel | None = None,
        record_level: RecordLevel | str | int = RecordLevel.OFF,
        check_invariants: bool | None = None,
        control: "ControlConfig | None" = None,
        batch_step: float | None = None,
        batch_drain_on_idle: bool = True,
        overhead: SchedOverheadModel | None = None,
        resources: ResourceProtocol | None = None,
        power: PowerStateModel | None = None,
    ) -> None:
        if submission_window is not None and submission_window < 1:
            raise SchedulingError(
                f"submission_window must be >= 1 or None, got {submission_window}"
            )
        if batch_step is not None and not batch_step > 0.0:
            raise SchedulingError(
                f"batch_step must be > 0 or None, got {batch_step}"
            )
        self.platform = platform
        self.scheduler = scheduler
        self.perfmodel = perfmodel
        self.rng = make_rng(seed)
        self.pipeline = pipeline
        self.submission_window = submission_window
        self.fault_model = fault_model
        self.control = control
        self.batch_step = batch_step
        self.batch_drain_on_idle = batch_drain_on_idle
        self.overhead = overhead
        self.resources = resources
        self.power = power
        self.check_invariants = invariants_enabled(check_invariants)
        self.record_level = RecordLevel.parse(record_level)
        self.obs: Observability | None = (
            Observability(self.record_level)
            if self.record_level >= RecordLevel.TASKS
            else None
        )
        self.ctx = SchedContext(platform, perfmodel)

    # -- main loop ---------------------------------------------------------

    def run(self, program: Program) -> SimResult:
        """Simulate ``program`` to completion and return metrics."""
        if not self.check_invariants:
            return self._run(program, None)
        # Deferred import: the default path never loads repro.check.
        from repro.check.invariants import InvariantChecker

        checker = InvariantChecker(self.obs)
        try:
            return self._run(program, checker)
        finally:
            # The checker's write barrier must not outlive the run.
            checker.end_run()

    def _run(self, program: Program, checker) -> SimResult:
        program.reset_runtime_state()
        self.platform.reset_runtime_state()
        ctx = self.ctx
        ctx.reset()
        obs = self.obs
        if obs is not None:
            obs.begin_run()
        self.platform.transfers.observer = obs
        emit = obs.emit if obs is not None else None
        scheduler = self.scheduler
        scheduler.obs = obs
        scheduler.setup(ctx)

        self._validate_program(program)

        events: list[tuple[float, int, int, object]] = []
        seq = 0
        n_done = 0
        n_total = len(program.tasks)
        forced_pops = 0
        pipeline = self.pipeline
        transfers = self.platform.transfers
        # Noise-free analytical models make sample() == estimate(); the
        # hot path then reads the estimate memo without threading the RNG
        # through a second call level.
        pm_noisefree = (
            type(self.perfmodel) is AnalyticalPerfModel
            and self.perfmodel.noise_sigma == 0.0
        )
        pm_estimate = self.perfmodel.estimate

        def post(time: float, kind: int, payload: object) -> None:
            nonlocal seq
            heapq.heappush(events, (time, seq, kind, payload))
            seq += 1

        workers = self.platform.workers
        n_workers = len(workers)
        death_us = ctx.death_us
        # Per-worker pipeline state, indexed by the dense worker id (a
        # list beats a dict on the per-event hot path).
        current: list[Task | None] = [None] * n_workers
        staged: list[tuple[Task, float, float] | None] = [None] * n_workers
        request_pending: list[bool] = [False] * n_workers
        exec_by_arch: dict[str, float] = {a: 0.0 for a in self.platform.archs}
        busy_by_worker: list[float] = [0.0] * n_workers
        wait_by_worker: list[float] = [0.0] * n_workers

        # Batch-mode scheduling state (Firmament-style): ready tasks
        # buffer in `pending` and reach the scheduler as one
        # `push_batch()` — at the step boundary (`BATCH_FLUSH`), when a
        # worker asks for work (drain-on-idle), or before the liveness
        # rescue. Buffered tasks are READY with a `_batched` scratch
        # marker: the scheduler does not hold them, the engine does.
        batch_step = self.batch_step
        batching = batch_step is not None
        batch_drain = self.batch_drain_on_idle
        pending: list[Task] = []
        flush_queued = False  # at most one BATCH_FLUSH event outstanding
        n_flushes = 0
        n_batched = 0
        max_batch = 0

        # Run hooks (DESIGN.md §4): one tuple of bound methods per hook
        # point, all empty on the classic (bit-identical) path.
        hooks = self._run_hooks(program, emit)
        (
            begin_hooks, reveal_hooks, push_hooks, pop_hooks, flush_hooks,
            gate_hooks, book_hooks, attempt_hooks, charge_hooks, done_hooks,
            stats_hooks,
        ) = (
            tuple(getattr(h, point) for h in hooks if hasattr(h, point))
            for point in (
                "begin", "reveal", "push", "pop", "flush", "gate", "book",
                "attempt", "charge", "on_task_done", "stats",
            )
        )
        # Event kinds the hooks own, dispatched past the core kinds.
        handlers = {k: f for h in hooks for k, f in getattr(h, "handlers", {}).items()}

        def push_ready(task: Task) -> None:
            nonlocal flush_queued
            task.state = TaskState.READY
            if emit is not None:
                emit(TaskReady(ctx.now, task.tid, task.type_name))
            if not batching:
                for push in push_hooks:
                    push(ctx.now)
                scheduler.push(task)
                return
            task.sched["_batched"] = True
            pending.append(task)
            if not flush_queued:
                flush_queued = True
                post(ctx.now + batch_step, BATCH_FLUSH, None)

        def flush_batch(now: float, trigger: str) -> int:
            """Hand the buffered batch to the scheduler (reveal order).

            Tasks cancelled while buffered (control-plane shed/evict)
            are skipped — the scheduler never sees them. Returns the
            number of tasks pushed.
            """
            nonlocal n_flushes, n_batched, max_batch
            if len(pending) == 1 and pending[0].state is TaskState.READY:
                # Degenerate batch: one scheduler.push, no list rebuild.
                task = pending.pop()
                del task.sched["_batched"]
                scheduler.push(task)
                n = 1
            else:
                batch = [t for t in pending if t.state is TaskState.READY]
                pending.clear()
                if not batch:
                    return 0
                for t in batch:
                    del t.sched["_batched"]
                scheduler.push_batch(batch)
                n = len(batch)
            for flush in flush_hooks:
                flush(now, n)
            n_flushes += 1
            n_batched += n
            if n > max_batch:
                max_batch = n
            if emit is not None:
                emit(BatchScheduled(now, n, trigger))
            return n

        # Progressive submission: a task only enters the scheduler's view
        # once the STF "main thread" has submitted it. Task ids are dense
        # submission indices, so `tid < revealed` is the submitted test.
        # Two gates throttle the reveal: the submission window (StarPU's
        # STARPU_LIMIT_MAX_SUBMITTED_TASKS back-pressure) and, for merged
        # job streams, each task's release time — its job's arrival on
        # the virtual clock. Both modes share one loop so TaskSubmit
        # events carry comparable ``ctx.now`` stamps.
        window = self.submission_window
        releases = program.release_times
        revealed = 0
        n_cancelled = 0  # control-plane cancellations (shed/evicted tasks)
        n_cxl_rev = 0  # cancelled tasks the reveal pointer has passed

        jobs = getattr(program, "jobs", None)
        job_track: dict[int, list] | None = None
        if emit is not None and jobs:
            # tid -> [span, n_unfinished] shared per job, for JobSubmit
            # (first reveal) and JobDone (last completion) provenance.
            job_track = {}
            for span in jobs:
                entry = [span, span.n_tasks]
                for tid in range(span.first_tid, span.first_tid + span.n_tasks):
                    job_track[tid] = entry

        def schedule_request(worker: Worker, now: float) -> None:
            nonlocal seq
            if not request_pending[worker.wid]:
                request_pending[worker.wid] = True
                heapq.heappush(events, (now, seq, WORKER_REQUEST, worker))
                seq += 1

        def wake_workers(now: float) -> None:
            """Wake live workers that could use new work (idle or unstaged)."""
            nonlocal seq
            for worker in ctx.workers:
                wid = worker.wid
                if (
                    not request_pending[wid]
                    and (current[wid] is None or (pipeline and staged[wid] is None))
                ):
                    request_pending[wid] = True
                    heapq.heappush(events, (now, seq, WORKER_REQUEST, worker))
                    seq += 1

        def cancel(first_tid: int, n_tasks: int, retract_ready: bool) -> list[Task]:
            """Cancel and return the job's unstarted tasks: all SUBMITTED
            ones, READY ones the scheduler retracts if ``retract_ready``.
            Like completion, it releases successors, so cross-job
            ``after`` chains progress past a shed job."""
            nonlocal n_cancelled, n_cxl_rev
            victims: list[Task] = []
            for tid in range(first_tid, first_tid + n_tasks):
                t = program.tasks[tid]
                if t.state is TaskState.SUBMITTED:
                    victims.append(t)
                elif retract_ready and t.state is TaskState.READY:
                    # A batch-buffered task is the engine's to retract:
                    # the scheduler never saw it. Otherwise ask the
                    # policy to withdraw its queue entries.
                    if "_batched" in t.sched:
                        del t.sched["_batched"]
                        victims.append(t)
                    elif scheduler.retract(t):
                        victims.append(t)
            # Mark every victim first so the release sweep below skips
            # intra-job edges instead of double-decrementing them.
            for t in victims:
                t.state = TaskState.CANCELLED
            released = False
            for t in victims:
                if t.tid < revealed:
                    n_cxl_rev += 1
                for succ in t.succs:
                    if succ.state is TaskState.CANCELLED:
                        continue
                    succ.n_unfinished_preds -= 1
                    if (
                        succ.n_unfinished_preds == 0
                        and succ.tid < revealed
                        and succ.state is TaskState.SUBMITTED
                    ):
                        push_ready(succ)
                        released = True
            n_cancelled += len(victims)
            if released:
                wake_workers(ctx.now)
            return victims

        def delay(first_tid: int, n_tasks: int, until: float) -> None:
            """Hold a job's tasks back until ``until``, and wake the loop then."""
            releases[first_tid:first_tid + n_tasks] = [until] * n_tasks
            post(until, JOB_ARRIVAL, None)

        def advance_submission() -> None:
            nonlocal revealed, n_cxl_rev
            while revealed < n_total:
                if window is not None and revealed - n_done - n_cxl_rev >= window:
                    break
                if releases is not None and releases[revealed] > ctx.now:
                    break
                task = program.tasks[revealed]
                if task.state is TaskState.CANCELLED:
                    # Shed/evicted before the STF thread got here: skip
                    # silently — the job never existed to the scheduler.
                    revealed += 1
                    n_cxl_rev += 1
                    continue
                # A reveal hook may hold the loop back (False) or shed
                # the task's job, which the branch above then skips.
                for reveal in reveal_hooks:
                    if not reveal(task, ctx.now):
                        return
                if task.state is TaskState.CANCELLED:
                    continue
                revealed += 1
                if emit is not None:
                    if job_track is not None:
                        entry = job_track.get(task.tid)
                        if entry is not None and task.tid == entry[0].first_tid:
                            span = entry[0]
                            emit(JobSubmit(
                                ctx.now, span.jid, span.tenant, span.name,
                                span.n_tasks, span.arrival_us,
                            ))
                    emit(TaskSubmit(ctx.now, task.tid, task.type_name))
                if task.n_unfinished_preds == 0 and task.state is TaskState.SUBMITTED:
                    push_ready(task)

        def end_attempt(worker: Worker, now: float) -> tuple[Task | None, float]:
            task = current[worker.wid]
            if task is None:
                return None, 0.0
            busy = account(worker, task, now)
            current[worker.wid] = None
            return task, busy

        def unstage(worker: Worker) -> Task | None:
            entry = staged[worker.wid]
            staged[worker.wid] = None
            return None if entry is None else entry[0]

        # Hooks get the run's core operations once (the fault hook posts
        # its worker deaths here, ahead of the release wake-ups in seq order).
        ops = RunOps(
            post, end_attempt, unstage, push_ready, schedule_request,
            wake_workers, cancel, delay,
        )
        for begin in begin_hooks:
            begin(ops)
        if releases is not None:
            releases = list(releases)  # a delay rewrites the run's copy
            # One wake-up per distinct future arrival time: the STF main
            # thread resumes submitting exactly when the next job lands.
            for arrival_time in sorted({t for t in releases if t > 0.0}):
                post(arrival_time, JOB_ARRIVAL, None)
        if checker is not None:
            # Before the first reveal, so its pushes pass the checker's
            # write barrier too.
            checker.begin_run(
                program=program,
                platform=self.platform,
                ctx=ctx,
                scheduler=scheduler,
                current=current,
                staged=staged,
                events=events,
                window=window,
                releases=releases,
                batch_pending=pending if batching else None,
                batch_drain=batch_drain,
                hooks=hooks,
            )
        advance_submission()

        for worker in workers:
            schedule_request(worker, 0.0)

        def take(worker: Worker, task: Task, now: float, **pop_flags) -> tuple[float, float]:
            """Bind a popped task to ``worker`` (TaskPop, validation,
            transfers, duration sample, pop hooks) and mark it RUNNING.

            Returns (data arrival time clamped to the pop decision's
            end, execution duration)."""
            if emit is not None:
                emit(TaskPop(now, task.tid, worker.wid, **pop_flags))
            arch = worker.arch
            if arch not in task.implementations or arch not in ctx.available_archs:
                raise SchedulingError(
                    f"scheduler assigned {task.name} to {worker.name} "
                    f"({arch}) but it has no {arch} implementation"
                )
            if task.state is not TaskState.READY:
                raise SchedulingError(
                    f"scheduler popped {task.name} in state {task.state.name}"
                )
            task.state = TaskState.RUNNING
            node = worker.memory_node
            arrival = now
            for handle in task._reads:
                # Settled resident replica: skip the fetch call entirely
                # (route search, in-flight merge) — only recency changes.
                if node in handle.valid_nodes and not handle._in_flight:
                    transfers.touch(handle, node, now)
                else:
                    done = transfers.fetch(handle, node, now)
                    if done > arrival:
                        arrival = done
                pins = handle._pins  # transfers.pin() inlined (hot path)
                pins[node] = pins.get(node, 0) + 1
            # Every transferable read is pinned, so the pinned set IS the
            # precomputed read tuple — no per-task list build.
            task.sched["_pinned"] = task._reads
            duration = (
                pm_estimate(task, arch)
                if pm_noisefree
                else self.perfmodel.sample(task, arch, self.rng)
            )
            for pop in pop_hooks:
                decision_end = pop(now)
                if decision_end > arrival:
                    arrival = decision_end
            return arrival, duration

        def begin_exec(
            worker: Worker, task: Task, now: float, arrival: float, duration: float
        ) -> None:
            nonlocal seq
            start = max(now, arrival)
            # Start gates commit here — begin_exec runs in event order,
            # so bookings serialize and can never overlap.
            for gate in gate_hooks:
                start, duration = gate(task, worker, now, start, duration)
            end = start + duration
            for book in book_hooks:
                book(task, worker, start, end)
            # pop_time is the moment the worker became free for this task;
            # (start - pop_time) is the residual (unoverlapped) data stall.
            task.sched["_record"] = (worker.wid, now, start, end)
            current[worker.wid] = task
            if emit is not None:
                emit(
                    TaskStart(
                        now, task.tid, task.type_name, worker.wid,
                        worker.memory_node, start,
                    )
                )
            # An attempt hook that fails the attempt posts its own event
            # in place of the completion.
            for attempt in attempt_hooks:
                if attempt(task, worker, start, duration) is not None:
                    return
            heapq.heappush(events, (end, seq, TASK_COMPLETION, (worker, task)))
            seq += 1

        def account(worker: Worker, task: Task, now: float) -> float:
            """Charge the attempt's busy, wait and exec time up to ``now``
            (completion, failure or worker death), then the charge hooks;
            a data stall is wait, not busy. Returns the busy time."""
            _, pop_time, start, _ = task.sched["_record"]
            busy = now - start if now > start else 0.0
            wid = worker.wid
            busy_by_worker[wid] += busy
            wait_by_worker[wid] += (start if start < now else now) - pop_time
            exec_by_arch[worker.arch] += busy
            for charge in charge_hooks:
                charge(task, worker, busy)
            return busy

        def try_stage(worker: Worker, now: float) -> None:
            """Pop one task ahead and start its transfers (lookahead)."""
            if not pipeline or staged[worker.wid] is not None:
                return
            task = scheduler.pop(worker)
            if task is None:
                return
            arrival, duration = take(worker, task, now, staged=True)
            staged[worker.wid] = (task, arrival, duration)
            if emit is not None:
                emit(TaskStage(now, task.tid, worker.wid, arrival))

        while events:
            if checker is not None:
                # Validate the state every processed event left behind,
                # before the queue is disturbed (the conservation sweep
                # scans it for pending retries).
                checker.validate(events[0][0], revealed, n_done)
            now, _, kind, payload = heapq.heappop(events)
            ctx.now = now

            if kind == WORKER_REQUEST:
                worker = payload  # type: ignore[assignment]
                wid = worker.wid
                request_pending[wid] = False
                if wid in death_us:
                    continue  # queued before the worker died
                if pending and batch_drain:
                    # Drain-on-idle: a worker is about to pop, so the
                    # scheduler must see everything the per-event path
                    # would have pushed by now.
                    flush_batch(now, "drain")
                if current[wid] is None:
                    if staged[wid] is not None:
                        task, arrival, duration = staged[wid]  # type: ignore[misc]
                        staged[wid] = None
                        begin_exec(worker, task, now, arrival, duration)
                    else:
                        task = scheduler.pop(worker)
                        if task is not None:
                            arrival, duration = take(worker, task, now)
                            begin_exec(worker, task, now, arrival, duration)
                    if current[wid] is not None:
                        try_stage(worker, now)
                else:
                    try_stage(worker, now)

            elif kind == TASK_COMPLETION:
                worker, task = payload  # type: ignore[misc]
                if current[worker.wid] is not task:
                    # Stale completion of an attempt aborted by a worker
                    # failure; the task was rolled back and re-pushed.
                    continue
                task.state = TaskState.DONE
                n_done += 1
                # The completion fires at the attempt's end: all of it is busy.
                self.perfmodel.record(task, worker.arch, account(worker, task, now))
                if emit is not None:
                    _, pop_time, start, end = task.sched["_record"]
                    emit(
                        TaskEnd(
                            now, task.tid, task.type_name, worker.wid,
                            worker.memory_node, pop_time, start, end,
                        )
                    )
                    if job_track is not None:
                        entry = job_track.get(task.tid)
                        if entry is not None:
                            entry[1] -= 1
                            if entry[1] == 0:
                                span = entry[0]
                                emit(JobDone(
                                    now, span.jid, span.tenant, span.name,
                                    span.n_tasks, span.arrival_us,
                                    now - span.arrival_us,
                                ))
                # Writes invalidate every other replica (MSI).
                node = worker.memory_node
                for handle in task.sched.get("_pinned", ()):
                    pins = handle._pins  # transfers.unpin() inlined (hot path)
                    count = pins.get(node, 0)
                    if count <= 1:
                        pins.pop(node, None)
                    else:
                        pins[node] = count - 1
                for handle in task._writes:
                    transfers.invalidate_others(handle, node, now)
                    handle._in_flight[node] = now
                scheduler.on_task_done(task, worker)
                for done in done_hooks:
                    done(task.tid, now)
                released = 0
                for succ in task.succs:
                    if succ.state is TaskState.CANCELLED:
                        continue
                    succ.n_unfinished_preds -= 1
                    if (
                        succ.n_unfinished_preds == 0
                        and succ.tid < revealed
                        and succ.state is TaskState.SUBMITTED
                    ):
                        push_ready(succ)
                        released += 1
                if window is not None:
                    before = revealed
                    advance_submission()
                    released += revealed - before
                current[worker.wid] = None
                schedule_request(worker, now)
                if released:
                    wake_workers(now)

            elif kind == JOB_ARRIVAL:
                # The clock reached a job's release time: resume the STF
                # submission loop and wake workers if anything came out.
                before = revealed
                advance_submission()
                if revealed != before:
                    wake_workers(now)

            elif kind == BATCH_FLUSH:
                flush_queued = False
                if pending and flush_batch(now, "step"):
                    wake_workers(now)

            else:
                handlers[kind](now, payload)

            # Liveness rescue: nothing in flight but tasks remain.
            if not events and n_done + n_cancelled < n_total:
                if any(c is not None for c in current):
                    continue
                if pending:
                    # Unreachable while a BATCH_FLUSH is queued, but a
                    # rescue pop must never miss buffered work.
                    flush_batch(now, "rescue")
                progressed = False
                for worker in ctx.workers:
                    task = scheduler.pop(worker) or scheduler.force_pop(worker)
                    if task is None:
                        continue
                    if task.state is not TaskState.READY:
                        # The scheduler has already tombstoned this task
                        # as taken; silently dropping it here would turn
                        # a scheduler bug into a DeadlockError later.
                        raise SchedulingError(
                            f"scheduler {scheduler.name!r} returned "
                            f"{task.name} in state {task.state.name} from "
                            f"the liveness-rescue pop; it was already "
                            f"handed out (popped twice?)"
                        )
                    forced_pops += 1
                    arrival, duration = take(worker, task, now, forced=True)
                    begin_exec(worker, task, now, arrival, duration)
                    progressed = True
                if not progressed:
                    remaining = [
                        t.name
                        for t in program.tasks
                        if t.state is not TaskState.DONE
                        and t.state is not TaskState.CANCELLED
                    ]
                    raise DeadlockError(
                        f"simulation stalled with {len(remaining)} unfinished tasks "
                        f"(first few: {remaining[:5]}); scheduler "
                        f"{scheduler.name!r} returned no task for any idle worker; "
                        f"scheduler stats: {scheduler.stats()!r}"
                    )

        if n_done + n_cancelled != n_total:
            raise DeadlockError(
                f"event queue drained with {n_total - n_done - n_cancelled} "
                f"unfinished tasks; scheduler {scheduler.name!r} stats: "
                f"{scheduler.stats()!r}"
            )
        if checker is not None:
            checker.validate(ctx.now, revealed, n_done)

        makespan = max(
            (
                task.sched["_record"][3]
                for task in program.tasks
                if "_record" in task.sched  # cancelled tasks never ran
            ),
            default=0.0,
        )
        idle_by_arch: dict[str, float] = {}
        for arch in self.platform.archs:
            fracs = [
                worker_idle_fraction(
                    busy_by_worker[w.wid] + wait_by_worker[w.wid],
                    makespan,
                    death_us.get(w.wid),
                )
                for w in self.platform.workers_of_arch(arch)
            ]
            idle_by_arch[arch] = sum(fracs) / len(fracs) if fracs else 0.0
        # The SimResult fields hooks fill (energy, faults, control).
        fields = {
            h.result_field: h.finalize(makespan, death_us)
            for h in hooks if hasattr(h, "finalize")
        }
        rt_stats = {k: v for stats in stats_hooks for k, v in stats().items()}

        return SimResult(
            makespan=makespan,
            n_tasks=n_total,
            total_flops=program.total_flops(),
            bytes_transferred=self.platform.transfers.total_bytes_moved(),
            exec_time_by_arch=exec_by_arch,
            idle_frac_by_arch=idle_by_arch,
            forced_pops=forced_pops,
            scheduler_stats=scheduler.stats(),
            events=tuple(obs.events) if obs is not None else None,
            metrics=(
                obs.snapshot(makespan, idle_by_arch) if obs is not None else None
            ),
            n_cancelled=n_cancelled,
            batch_stats=(
                {
                    "n_flushes": float(n_flushes),
                    "n_batched": float(n_batched),
                    "max_batch": float(max_batch),
                    "mean_batch": n_batched / n_flushes if n_flushes else 0.0,
                }
                if batching
                else None
            ),
            rt_stats=rt_stats or None,
            busy_us_by_worker=tuple(busy_by_worker),
            death_us_by_worker=dict(death_us),
            **fields,
        )

    def _run_hooks(self, program: Program, emit) -> tuple:
        """This run's hooks, in hook order: overhead, resources, power,
        faults, control."""
        hooks: list = []
        if self.overhead is not None:
            hooks.append(OverheadLedger(self.overhead))
        if self.resources is not None:
            hooks.append(ResourceLedger(self.resources, program.tasks, emit))
        if self.power is not None:
            hooks.append(PowerLedger(self.power, self.platform, emit))
        if self.fault_model is not None:
            hooks.append(FaultInjector(
                self.fault_model, program, self.scheduler, self.ctx, emit
            ))
        if self.control is not None:
            hooks.append(self.control.plane(
                program, self.perfmodel, self.ctx.available_archs, emit
            ))
        return tuple(hooks)

    # -- validation ----------------------------------------------------------

    def _validate_program(self, program: Program) -> None:
        for task in program.tasks:
            if not any(task.can_exec(a) for a in self.ctx.available_archs):
                raise SchedulingError(
                    f"{task.name} has implementations {sorted(task.implementations)} "
                    f"but the platform only offers {self.ctx.available_archs}"
                )
