"""Engine-attached runtime invariant validator.

The engine binds one :class:`InvariantChecker` per run (only when
``check_invariants=True``) and calls :meth:`InvariantChecker.validate`
at the top of the event loop — i.e. after every fully-processed event,
with the queue intact — plus once more after the loop drains. Each call
checks the ten invariant families below against the whole runtime state.

Its cost follows what each event touched. For the length of a checked
run, :meth:`InvariantChecker.begin_run` installs a write barrier
(:mod:`repro.check.barrier`): per-run logging classes on the program's
tasks and data handles, the scheduler and its heaps, the transfer
engine's residency tables and the control plane. Each call drains the
barrier's logs and re-checks only what they name.
:meth:`InvariantChecker.end_run` restores the plain classes whether the
run ended normally or by raising. Unchecked runs never see these
classes.

The three task families (``window``, ``conservation``, ``task_state``)
are exact but incremental. Each call drains the task log and diffs only
the logged tasks against the checker's own mirrors of every task's state
(a ``bytearray``) and dependency counter. Only the tasks that moved
update the checker's derived state: the expected dependency counter of
every task, the set of tasks whose counter disagrees with it, the DONE
count, the RUNNING and READY tid sets, the set of SUBMITTED tasks whose
expected counter is 0, and the count of cancelled tasks the reveal
pointer has passed. Every write goes through the barrier, so a task the
log does not name still equals its mirror: drift on a task no event
touched (a counter written from outside the engine, say) is in the log
and caught at the next call. The moves, the violations and their order
are those of a full snapshot diff.

The ``msi`` family is exact but incremental the same way. It keeps a
copy of each data handle's state as last checked (replica set, pins,
in-flight transfers, size, home node) and that check's violations.
Each call compares only the logged handles with their copies, adds
those whose expected pins, COMMUTE membership or residency changed
(every handle when the replica-loss exemption flips), and checks only
these again; the cached verdicts of the rest are reported unchanged.
The expected pins are updated only for the tasks whose running/staged
holders changed. Per bounded node, the checker keeps what a walk of its
residency would find, key by key, from the log of the residency tables'
writes (:class:`_Residency`); a node is walked only when that is not
clean, to word the report. Outside a run (no barrier installed) every
task, handle and residency key counts as touched, so a checker driven
by hand stays exact.
``scheduler`` is the policy's own :meth:`~repro.schedulers.base.Scheduler.check`,
incremental over the change log the barrier fills for it, and the
``rt``, ``energy`` and ``control`` families are the run hooks' own
audits (``audit(now)`` on each ledger and on the control plane); the
resource grant log is consumed incrementally and the control audit keeps
its tallies over the job records written.

``clock``
    Event times never move backward.
``link``
    Per-link FIFO clocks and counters are monotone, the demand clock
    never exceeds the combined clock, and recorded prefetch wire spans
    are ordered and consistent with the clocks.
``msi``
    Replica-set coherence: every handle has a valid replica (unless a
    memory node lost its last worker, which drops the replicas it
    hosted), in-flight transfers and pins target valid replicas, pin
    counts equal exactly what the running/staged tasks pinned, and the
    capacity accounting (``_resident``/``_usage``) of bounded nodes
    matches the handles' sizes.
``task_state``
    Only legal lifecycle transitions occurred since the previous check
    (fault rollbacks are legal only under a fault model); ``DONE`` is
    terminal.
``conservation``
    Every task is in exactly one bucket — unrevealed, waiting on
    predecessors, scheduler-held (READY), running/staged, retry-pending
    (with a matching TASK_RETRY event in the queue), or done — and the
    dependency counters agree with the predecessors' states.
``window``
    Submission accounting: the in-flight count ``revealed - n_done``
    never exceeds the submission window, and whenever submission is
    stalled with tasks left, either the window is genuinely full or the
    next task's release time is genuinely in the future — otherwise the
    STF reveal loop leaked (e.g. a rollback path failed to re-advance).
``scheduler``
    Whatever the policy's own :meth:`~repro.schedulers.base.Scheduler.check`
    reports (heap order, counter exactness, ...).
``batch``
    Batch-mode scheduling only: every buffered task is READY (or
    cancelled awaiting its flush skip), revealed, release-gated and
    dependency-free — i.e. the batch never outran the submission window
    or a release time — and a ``BATCH_FLUSH`` event is queued whenever
    the buffer is non-empty (no batch can be forgotten).
``control``
    When a control plane is attached: credit conservation (every decided
    job is admitted, shed, or pending another delay), the in-flight
    gauge matches admitted jobs' remaining work, no guaranteed-class job
    was ever shed, and no token bucket exceeds its burst
    (:meth:`repro.control.ControlPlane.audit`).
``rt``
    Real-time extensions only. Slack bookkeeping: every merged task's
    absolute deadline lies inside its job's ``(arrival, deadline]``
    window (checked once at run start). Overhead conservation and a
    scheduler-core clock that never retreats
    (:meth:`repro.runtime.overhead.OverheadLedger.audit`); per
    resource, granted intervals never overlap
    (:meth:`repro.runtime.resources.ResourceLedger.audit`).
``energy``
    Power-subsystem runs only: node draw within its cap, busy time
    within the clock and additive across workers, monotone counters
    (:meth:`repro.runtime.power.PowerLedger.audit`).

Violations are emitted as
:class:`~repro.obs.events.InvariantViolation` events (when observability
is on) and raised as one
:class:`~repro.utils.validation.InvariantError`. The checker only reads
engine state — a checked run's schedule is bit-identical to an
unchecked one.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING

from repro.check.barrier import Barrier, ResidencyTable
from repro.control.plane import ControlPlane
from repro.obs.events import InvariantViolation
from repro.runtime.events import BATCH_FLUSH, TASK_RETRY
from repro.runtime.faults import FaultInjector
from repro.runtime.data import DataHandle
from repro.runtime.task import AccessMode, Task, TaskState
from repro.utils.incremental import ChangeLog
from repro.utils.validation import InvariantError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.bus import Observability
    from repro.runtime.platform_config import Platform
    from repro.runtime.stf import Program

_S = TaskState.SUBMITTED
_READY = TaskState.READY
_RUNNING = TaskState.RUNNING
_DONE = TaskState.DONE
_CXL = TaskState.CANCELLED

#: Transitions observable between two consecutive checks (one event may
#: compose several steps, e.g. push + rescue-pop gives SUBMITTED→RUNNING).
_LEGAL = {
    (_S, _S), (_S, _READY), (_S, _RUNNING),
    (_READY, _READY), (_READY, _RUNNING),
    (_RUNNING, _RUNNING), (_RUNNING, _DONE),
    (_DONE, _DONE),
}
#: Rollback transitions, legal only when a fault model is active.
_FAULT_ONLY = {(_RUNNING, _S), (_READY, _S), (_RUNNING, _READY)}
#: Cancellations, legal only when a control plane is attached (shed jobs
#: cancel from SUBMITTED, evicted-and-retracted tasks from READY).
_CONTROL_ONLY = {(_S, _CXL), (_READY, _CXL)}

#: TaskState by value, to read a byte of the state mirror back.
_STATES = tuple(TaskState)
#: States that no longer hold their successors back.
_FINISHED = (_DONE, _CXL)


#: The checker's own reads of handle containers: straight from the slots,
#: so they neither mark a handle touched nor pay for the barrier.
_valid_of = DataHandle.valid_nodes.__get__
_pins_of = DataHandle._pins.__get__
_flight_of = DataHandle._in_flight.__get__
#: A key absent from a residency table.
_ABSENT = object()


class _Residency:
    """What a bounded node's residency walk would find, kept per key.

    ``sizes`` mirrors the resident set as last seen (hid -> size) and
    ``total`` sums its integer sizes exactly; ``invalid`` holds the
    resident handles not valid on the node, ``diverge`` the keys in only
    one of the resident and recency tables, and ``odd`` the resident
    handles whose size is not an integer (only a full walk sums those).
    """

    __slots__ = ("sizes", "total", "invalid", "diverge", "odd")

    def __init__(self) -> None:
        self.sizes: dict[int, object] = {}
        self.total = 0
        self.invalid: set[int] = set()
        self.diverge: set[int] = set()
        self.odd: set[int] = set()

    def update(self, mid: int, hid: int, resident: dict, last_use: dict) -> bool:
        """Re-read one key; returns whether it entered or left the
        resident set."""
        old = self.sizes.pop(hid, _ABSENT)
        if old is not _ABSENT:
            if type(old) is int:
                self.total -= old
            else:
                self.odd.discard(hid)
        handle = resident.get(hid, _ABSENT)
        if handle is _ABSENT:
            self.invalid.discard(hid)
        else:
            size = self.sizes[hid] = handle.size
            if type(size) is int:
                self.total += size
            else:
                self.odd.add(hid)
            if mid in _valid_of(handle):
                self.invalid.discard(hid)
            else:
                self.invalid.add(hid)
        if (handle is _ABSENT) == (hid in last_use):
            self.diverge.add(hid)
        else:
            self.diverge.discard(hid)
        return (old is _ABSENT) != (handle is _ABSENT)

    def clean(self, usage) -> bool:
        """Whether a full walk of the node would find nothing."""
        return not (self.invalid or self.diverge or self.odd) and self.total == usage


class InvariantChecker:
    """Validates engine + scheduler state after every simulation event.

    The engine calls :meth:`begin_run` once (binding live references to
    its loop-local structures — the dicts and the event heap are mutated
    in place, so the references stay current), then :meth:`validate`
    once per event, and :meth:`end_run` when the run ends, however it
    ends. ``n_checks`` counts validations for reporting.
    """

    def __init__(self, obs: "Observability | None" = None) -> None:
        self.obs = obs
        self.n_checks = 0
        self.control = None
        # The write barrier and its logs; None while none is installed,
        # which makes every object count as touched.
        self._barrier: Barrier | None = None
        self._task_log: list | None = None
        self._handle_log: list | None = None
        self._residency_log: list | None = None
        self._scheduler_log: ChangeLog | None = None

    def begin_run(
        self,
        *,
        program: "Program",
        platform: "Platform",
        ctx,
        scheduler,
        current: "list[Task | None]",
        staged: "list[tuple[Task, float, float] | None]",
        events: list,
        window: int | None = None,
        releases: "list[float] | tuple[float, ...] | None" = None,
        batch_pending: list[Task] | None = None,
        batch_drain: bool = True,
        hooks: tuple = (),
    ) -> None:
        """Bind one run's live state and snapshot the starting point.

        ``releases`` must be the engine's own (possibly mutable) list so
        control-plane delay decisions stay visible to the window check.
        ``hooks`` are the run's hooks; each one with an ``audit(now)``
        reports its own violations, the fault hook among them makes
        rollbacks legal, and the control plane among them makes
        cancellations legal.
        """
        self.program = program
        self.platform = platform
        self.ctx = ctx
        self.scheduler = scheduler
        self.current = current
        self.staged = staged
        self.events = events
        # Rollbacks are legal only when the fault hook is attached.
        self.fault_active = any(isinstance(h, FaultInjector) for h in hooks)
        self.window = window
        self.releases = releases
        # Cancellations are legal only when the control plane is attached.
        self.control = next((h for h in hooks if isinstance(h, ControlPlane)), None)
        self.batch_pending = batch_pending
        self.batch_drain = batch_drain
        self.hooks = hooks
        self.n_checks = 0
        self._node_of_wid = {w.wid: w.memory_node for w in platform.workers}
        self._node_ids = {n.mid for n in platform.nodes}
        self._last_now = 0.0
        barrier = self._barrier = Barrier(
            program, platform.transfers, scheduler, hooks
        )
        self._task_log = barrier.task_log
        self._handle_log = barrier.handle_log
        self._residency_log = barrier.residency_log
        self._scheduler_log = barrier.scheduler_log
        self._init_tasks()
        self._init_msi()
        # Per-link monotonicity floor: (busy, demand, bytes, transfers).
        self._link_floor = {
            id(link): (link.busy_until, link.demand_busy_until,
                       link.bytes_moved, link.n_transfers)
            for link in platform.transfers.links()
        }
        # Slack bookkeeping (rt family), once per run: every merged
        # task's absolute deadline must lie inside its job's
        # (arrival, deadline] window — the merge's min(job, own) rule.
        violations: list[tuple[str, str]] = []
        spans = getattr(program, "jobs", None)
        if spans:
            tasks = program.tasks
            for span in spans:
                lo, hi = span.arrival_us, span.deadline_us
                for tid in range(span.first_tid, span.first_tid + span.n_tasks):
                    dl = tasks[tid].deadline_us
                    if dl > hi or dl <= lo:
                        violations.append((
                            "rt",
                            f"task {tid} deadline {dl}us outside job "
                            f"{span.jid}'s ({lo}us, {hi}us] window",
                        ))
        if violations:
            self._report(violations)

    def end_run(self) -> None:
        """Remove the write barrier (:meth:`Barrier.remove`). Safe to call
        more than once, or without a run."""
        if self._barrier is not None:
            self._barrier.remove()
        self._barrier = None
        self._task_log = self._handle_log = self._residency_log = None
        self._scheduler_log = None

    # -- entry point -------------------------------------------------------

    def validate(self, next_now: float, revealed: int, n_done: int) -> None:
        """Run every invariant family; raise on any violation.

        ``next_now`` is the timestamp of the event about to be processed
        (or the final clock after the queue drained); ``revealed`` and
        ``n_done`` mirror the engine's submission-window counters.
        """
        self.n_checks += 1
        violations: list[tuple[str, str]] = []
        # The submission state under test was left behind by the
        # *previous* event; judge release gating against its clock, not
        # against the event about to be processed (a pending JOB_ARRIVAL
        # at ``next_now`` legitimately has un-revealed tasks before it).
        prev_now = self._last_now
        self._check_clock(next_now, violations)
        self._check_links(violations)
        running = self._check_tasks(revealed, n_done, prev_now, violations)
        self._check_msi(running, violations)
        if self.batch_pending is not None:
            self._check_batch(revealed, prev_now, violations)
        self._check_hooks(violations)
        self._check_scheduler(violations)
        if violations:
            self._report(violations)

    def _check_hooks(self, out: list) -> None:
        """The run hooks' own audits (``rt``, ``energy``, ``control``)."""
        for hook in self.hooks:
            if hasattr(hook, "audit"):
                out.extend(hook.audit(self._last_now))

    def _check_scheduler(self, out: list) -> None:
        """The policy's own :meth:`~repro.schedulers.base.Scheduler.check`."""
        for detail in self.scheduler.check():
            out.append(("scheduler", str(detail)))

    def _report(self, violations: list[tuple[str, str]]) -> None:
        now = self.ctx.now
        if self.obs is not None:
            for family, detail in violations:
                self.obs.emit(InvariantViolation(now, family, detail))
        shown = "\n".join(f"  [{f}] {d}" for f, d in violations[:20])
        extra = len(violations) - 20
        if extra > 0:
            shown += f"\n  ... and {extra} more"
        raise InvariantError(
            f"{len(violations)} invariant violation(s) at t={now:.3f}us "
            f"(check #{self.n_checks}, scheduler {self.scheduler.name!r}):\n"
            f"{shown}"
        )

    # -- families ----------------------------------------------------------

    def _check_clock(self, next_now: float, out: list) -> None:
        if next_now < self._last_now:
            out.append((
                "clock",
                f"event clock moved backward: next event at t={next_now} "
                f"after t={self._last_now}",
            ))
        else:
            self._last_now = next_now

    def _check_links(self, out: list) -> None:
        floors = self._link_floor
        for link in self.platform.transfers.links():
            name = f"link {link.src}->{link.dst}"
            busy, demand, moved, count = floors[id(link)]
            if link.busy_until < busy or link.demand_busy_until < demand:
                out.append((
                    "link",
                    f"{name} clock moved backward: busy "
                    f"{busy}->{link.busy_until}, demand "
                    f"{demand}->{link.demand_busy_until}",
                ))
            if link.bytes_moved < moved or link.n_transfers < count:
                out.append((
                    "link",
                    f"{name} counters decreased: bytes {moved}->"
                    f"{link.bytes_moved}, transfers {count}->{link.n_transfers}",
                ))
            floors[id(link)] = (link.busy_until, link.demand_busy_until,
                                link.bytes_moved, link.n_transfers)
            if link.demand_busy_until > link.busy_until:
                out.append((
                    "link",
                    f"{name} demand clock {link.demand_busy_until} ahead of "
                    f"combined clock {link.busy_until}: the two traffic "
                    f"classes overlap on the wire",
                ))
            prev_start = None
            for span_start, span_end in link._prefetch_spans:
                if span_end < span_start:
                    out.append(("link", f"{name} prefetch span ends before "
                                        f"it starts: ({span_start}, {span_end})"))
                if prev_start is not None and span_start < prev_start:
                    out.append(("link", f"{name} prefetch spans out of order"))
                prev_start = span_start
                if span_end > link.busy_until:
                    out.append((
                        "link",
                        f"{name} prefetch span ({span_start}, {span_end}) "
                        f"extends past the link clock {link.busy_until}",
                    ))

    def _check_window(
        self, revealed: int, n_done: int, prev_now: float, out: list
    ) -> None:
        """Submission-window accounting and reveal liveness.

        The in-flight bound counts rolled-back (retry-pending) tasks as
        submitted-but-unfinished — exactly StarPU's semantics, where a
        failed attempt does not return its submission slot. The leak
        check is the converse: a stalled reveal must always be
        explainable by a full window or a future release time.
        """
        window = self.window
        n_total = len(self.program.tasks)
        # Cancelled tasks the reveal pointer passed never consume a
        # submission slot (mirrors the engine's n_cxl_rev counter);
        # cancellation only exists under a control plane.
        n_cxl_rev = (
            self._cancelled_revealed(revealed) if self.control is not None else 0
        )
        in_flight = revealed - n_done - n_cxl_rev
        if window is not None and in_flight > window:
            out.append((
                "window",
                f"{in_flight} tasks in flight (revealed={revealed}, "
                f"done={n_done}, cancelled={n_cxl_rev}) exceed the "
                f"submission window {window}",
            ))
        if revealed < n_total:
            window_full = window is not None and in_flight >= window
            releases = self.releases
            gated = releases is not None and releases[revealed] > prev_now
            if not window_full and not gated:
                out.append((
                    "window",
                    f"submission stalled at task {revealed}/{n_total} with "
                    f"{in_flight} in flight although neither the window "
                    f"({window}) nor a release time blocks it: the reveal "
                    f"loop leaked",
                ))

    def _check_batch(self, revealed: int, prev_now: float, out: list) -> None:
        """Batch-mode buffer discipline.

        Buffered tasks went through the full reveal pipeline — release
        gate, submission window, control admission — before entering the
        buffer, so each must be a revealed, dependency-free READY task
        whose release time has passed (or a cancelled task waiting for
        its flush skip). A non-empty buffer must always have a
        ``BATCH_FLUSH`` event queued, else the batch would be forgotten.
        """
        pending = self.batch_pending
        if not pending:
            return
        releases = self.releases
        seen: set[int] = set()
        for task in pending:
            if task.tid in seen:
                out.append(("batch", f"{task.name} buffered twice"))
            seen.add(task.tid)
            state = task.state
            if state is _CXL:
                if "_batched" in task.sched:
                    out.append((
                        "batch",
                        f"{task.name} cancelled while buffered but still "
                        f"carries the _batched marker",
                    ))
                continue
            if state is not _READY:
                out.append((
                    "batch",
                    f"{task.name} buffered in state {state.name} (only READY "
                    f"tasks may wait in a batch)",
                ))
                continue
            if "_batched" not in task.sched:
                out.append((
                    "batch",
                    f"{task.name} buffered without the _batched marker",
                ))
            if task.tid >= revealed:
                out.append((
                    "batch",
                    f"{task.name} buffered but never revealed "
                    f"(revealed={revealed}): the batch outran the "
                    f"submission window",
                ))
            if releases is not None and releases[task.tid] > prev_now:
                out.append((
                    "batch",
                    f"{task.name} buffered at t={prev_now} before its "
                    f"release {releases[task.tid]}: the batch outran the "
                    f"release gate",
                ))
            if task.n_unfinished_preds != 0:
                out.append((
                    "batch",
                    f"{task.name} buffered with {task.n_unfinished_preds} "
                    f"unfinished predecessors",
                ))
        if not any(kind == BATCH_FLUSH for _, _, kind, _ in self.events):
            out.append((
                "batch",
                f"{len(pending)} task(s) buffered but no BATCH_FLUSH event "
                f"is queued: the batch leaked",
            ))

    # -- task families (mirror diff) ---------------------------------------

    def _init_tasks(self) -> None:
        """Derive the task families' state for a fresh run.

        Starts from a virtual all-SUBMITTED state, whose derived state is
        known (expected counter = number of predecessors), and lets one
        diff over every task bring it up to the tasks' actual states.
        That diff's moves are not judged: the run starts wherever the
        tasks are.
        """
        tasks = self.program.tasks
        n = len(tasks)
        # Mirrors as of the last sync: each task's TaskState as one byte,
        # and its dependency counter.
        self._states = bytearray(n)
        self._counts = [0] * n
        self._expected = [len(t.preds) for t in tasks]
        # Tids whose mirrored counter differs from the expected one.
        self._mismatch: set[int] = set()
        self._n_done_seen = 0
        self._running: set[int] = set()
        self._ready: set[int] = set()
        # SUBMITTED tasks whose expected counter is 0, revealed or not,
        # and a min-heap over them (with lazily dropped leavers) for the
        # lowest one: most of them are unrevealed.
        self._zero_submitted = {t.tid for t in tasks if not t.preds}
        self._zero_heap = sorted(self._zero_submitted)
        # Cancelled tasks below ``_cxl_mark`` (the last reveal pointer).
        self._cxl_mark = 0
        self._n_cxl_rev = 0
        if self._task_log is not None:
            self._task_log.clear()
        self._sync(range(n))

    def _sync(self, tids=None) -> "list[tuple[int, TaskState, TaskState]]":
        """Bring the mirrors up to date and the derived state with them.

        ``tids`` are the tasks to re-read, in ascending order; by default
        those the barrier logged since the previous call (every task when
        no barrier is installed). Returns the ``(tid, before, after)``
        state moves since the previous call in tid order. Invariant kept
        for every non-cancelled task: ``_expected[tid]`` is the number of
        its predecessors that are neither DONE nor CANCELLED in the
        mirror. A cancelled task's counter freezes at cancellation (the
        engine stops releasing it), and so does its entry here: successor
        updates skip cancelled tasks, so a clean cancelled task never
        shows up as a counter mismatch.
        """
        tasks = self.program.tasks
        if tids is None:
            log = self._task_log
            if log is None:
                tids = range(len(tasks))
            elif not log:
                return []
            else:
                tids = sorted({task.tid for task in log})
                log.clear()
        states = self._states
        counts = self._counts
        moves = []
        for tid in tids:
            task = tasks[tid]
            counts[tid] = task.n_unfinished_preds
            after = task.state
            before = states[tid]
            if after != before:
                states[tid] = after
                moves.append((tid, _STATES[before], _STATES[after]))
        expected = self._expected
        mismatch = self._mismatch
        running, ready, zero = self._running, self._ready, self._zero_submitted
        zero_heap = self._zero_heap
        mark = self._cxl_mark
        uncancelled: list[int] = []
        for tid, before, after in moves:
            if before is _RUNNING:
                running.discard(tid)
            elif before is _READY:
                ready.discard(tid)
            elif before is _S:
                zero.discard(tid)
            elif before is _DONE:
                self._n_done_seen -= 1
            elif tid < mark:
                self._n_cxl_rev -= 1
            if after is _RUNNING:
                running.add(tid)
            elif after is _READY:
                ready.add(tid)
            elif after is _S:
                if expected[tid] == 0:
                    zero.add(tid)
                    heappush(zero_heap, tid)
            elif after is _DONE:
                self._n_done_seen += 1
            elif tid < mark:
                self._n_cxl_rev += 1
            if before is _CXL:
                uncancelled.append(tid)
            finished = after is _DONE or after is _CXL
            if finished == (before is _DONE or before is _CXL):
                continue
            step = -1 if finished else 1
            for succ in tasks[tid].succs:
                sid = succ.tid
                succ_state = states[sid]
                if succ_state == _CXL:
                    continue
                left = expected[sid] + step
                expected[sid] = left
                if counts[sid] != left:
                    mismatch.add(sid)
                else:
                    mismatch.discard(sid)
                if succ_state == _S:
                    if left == 0:
                        zero.add(sid)
                        heappush(zero_heap, sid)
                    else:
                        zero.discard(sid)
        for tid in uncancelled:
            # Back from CANCELLED (never legal): its entry froze while it
            # was cancelled, so recount its predecessors.
            left = sum(
                1 for p in tasks[tid].preds if states[p.tid] not in _FINISHED
            )
            expected[tid] = left
            if states[tid] == _S:
                if left == 0:
                    zero.add(tid)
                    heappush(zero_heap, tid)
                else:
                    zero.discard(tid)
        for tid in tids:
            if counts[tid] != expected[tid]:
                mismatch.add(tid)
            else:
                mismatch.discard(tid)
        return moves

    def _cancelled_revealed(self, revealed: int) -> int:
        """Cancelled tasks below the reveal pointer ``revealed``.

        Moves in and out of CANCELLED below the previous pointer are
        counted by :meth:`_sync`; only the span the pointer moved over
        is counted here (one C-level ``bytes.count``).
        """
        mark = self._cxl_mark
        if revealed > mark:
            self._n_cxl_rev += self._states[mark:revealed].count(_CXL)
        elif revealed < mark:
            self._n_cxl_rev -= self._states[revealed:mark].count(_CXL)
        self._cxl_mark = revealed
        return self._n_cxl_rev

    def _check_tasks(
        self, revealed: int, n_done: int, prev_now: float, out: list
    ) -> dict[int, list[tuple[Task, int]]]:
        """The ``window``, ``conservation`` and ``task_state`` families;
        returns :meth:`_check_conservation`'s running/staged tasks."""
        moves = self._sync()
        log = self._scheduler_log
        if moves and log is not None:
            # A task's state is an input of the policy's self-check.
            tasks = self.program.tasks
            log.items.extend([tasks[tid] for tid, _, _ in moves])
        self._check_window(revealed, n_done, prev_now, out)
        running = self._check_conservation(revealed, n_done, out)
        self._check_task_states(moves, out)
        return running

    def _check_conservation(
        self, revealed: int, n_done: int, out: list
    ) -> dict[int, list[tuple[Task, int]]]:
        """Every task is in exactly one bucket; counters are exact.

        Reads the mirrors and derived state :meth:`_sync` left behind.
        Violations come out in tid order (within a task: counter, then
        holder, then bucket), followed by the completion count. Returns
        running/staged tasks as ``tid -> [(task, node)]`` so the MSI
        sweep can derive the expected pin counts without re-walking the
        worker dicts.
        """
        node_of = self._node_of_wid
        holders: dict[int, list[int]] = {}
        running: dict[int, list[tuple[Task, int]]] = {}
        for wid, task in enumerate(self.current):
            if task is not None:
                holders.setdefault(task.tid, []).append(wid)
                running.setdefault(task.tid, []).append((task, node_of[wid]))
        for wid, entry in enumerate(self.staged):
            if entry is not None:
                task = entry[0]
                holders.setdefault(task.tid, []).append(wid)
                running.setdefault(task.tid, []).append((task, node_of[wid]))

        tasks = self.program.tasks
        states = self._states
        counts = self._counts
        expected = self._expected
        zero = self._zero_submitted
        found: list[tuple[int, int, str]] = []
        mismatch = self._mismatch
        if mismatch:
            zero = set(zero)  # candidates by actual counter, not expected
            for tid in sorted(mismatch):
                if states[tid] == _CXL:
                    # A cancelled task's counter is not checked.
                    expected[tid] = counts[tid]
                    mismatch.discard(tid)
                    continue
                task = tasks[tid]
                found.append((
                    tid, 0,
                    f"{task.name} counts {counts[tid]} unfinished "
                    f"predecessors but {expected[tid]} of {len(task.preds)} "
                    f"are not DONE",
                ))
                if states[tid] == _S:
                    if counts[tid] == 0:
                        zero.add(tid)
                    else:
                        zero.discard(tid)
        for tid, wids in holders.items():
            state = states[tid]
            if state == _RUNNING and len(wids) == 1:
                continue
            name = tasks[tid].name
            if state == _CXL:
                found.append((
                    tid, 0, f"{name} is CANCELLED but held by worker(s) {wids}",
                ))
                continue
            if state != _RUNNING:
                found.append((
                    tid, 1,
                    f"{name} held by worker(s) {wids} but in state "
                    f"{_STATES[state].name}, not RUNNING",
                ))
            if len(wids) > 1:
                found.append((
                    tid, 2, f"{name} held by {len(wids)} workers at once: {wids}",
                ))
        for tid in self._running.difference(holders):
            found.append((
                tid, 3,
                f"{tasks[tid].name} is RUNNING but no worker holds it "
                f"(neither current nor staged)",
            ))
        ready = self._ready
        if ready and max(ready) >= revealed:
            for tid in ready:
                if tid >= revealed and tid not in holders:
                    found.append((
                        tid, 3,
                        f"{tasks[tid].name} is READY but was never submitted "
                        f"(revealed={revealed})",
                    ))
        if zero is self._zero_submitted:
            zero_heap = self._zero_heap
            while zero_heap and zero_heap[0] not in zero:
                heappop(zero_heap)
            lowest = zero_heap[0] if zero_heap else None
        else:
            lowest = min(zero, default=None)
        if lowest is not None and lowest < revealed:
            # Submitted, dependencies met, yet not scheduler-held: only
            # legal as a failed task awaiting its retry event.
            idle = [t for t in zero if t < revealed and t not in holders]
            if idle:
                retry_pending = {
                    payload.tid
                    for _, _, kind, payload in self.events
                    if kind == TASK_RETRY
                }
                for tid in idle:
                    if tid not in retry_pending:
                        found.append((
                            tid, 3,
                            f"{tasks[tid].name} is SUBMITTED with all "
                            f"predecessors done but is neither scheduler-held "
                            f"nor retry-pending: the task leaked",
                        ))
        if found:
            found.sort()
            out.extend(("conservation", detail) for _, _, detail in found)
        if self._n_done_seen != n_done:
            out.append((
                "conservation",
                f"engine counted {n_done} completions but {self._n_done_seen} "
                f"tasks are DONE",
            ))
        return running

    def _check_task_states(
        self, moves: "list[tuple[int, TaskState, TaskState]]", out: list
    ) -> None:
        """Only legal lifecycle moves happened since the previous check."""
        fault = self.fault_active
        controlled = self.control is not None
        tasks = self.program.tasks
        for tid, before, after in moves:
            move = (before, after)
            if (move in _LEGAL or (fault and move in _FAULT_ONLY)
                    or (controlled and move in _CONTROL_ONLY)):
                continue
            if move in _CONTROL_ONLY:
                why = "control-only cancellation without a control plane"
            elif move in _FAULT_ONLY:
                why = "fault-only rollback without a fault model"
            else:
                why = "illegal lifecycle transition"
            out.append((
                "task_state",
                f"{tasks[tid].name}: {before.name} -> {after.name} ({why})",
            ))

    # -- msi family (snapshot diff) ---------------------------------------

    def _init_msi(self) -> None:
        """Reset the msi family's state for a fresh run.

        Every snapshot starts as ``None``, which equals no live value, and
        every handle counts as touched, so the first call checks every
        handle and reads every bounded node's residency in full.
        """
        platform = self.platform
        handles = self.program.handles
        n = len(handles)
        self._hidx = {h.hid: i for i, h in enumerate(handles)}
        if self._handle_log is not None:
            self._handle_log[:] = handles
        if self._residency_log is not None:
            self._residency_log.clear()
        # Nodes that start with workers: one losing its last worker takes
        # the replicas it hosted with it.
        self._staffed_nodes = tuple(
            node.mid for node in platform.nodes
            if platform.workers_of_node(node.mid)
        )
        # Last checked state per handle, in handle order (hid and label
        # only name a handle and are not snapshotted).
        self._msi_valid: list = [None] * n
        self._msi_pins: list = [None] * n
        self._msi_flight: list = [None] * n
        self._msi_size: list = [None] * n
        self._msi_home: list = [None] * n
        # Handle index -> the violations its last check found.
        self._msi_found: dict[int, list[tuple[str, str]]] = {}
        self._msi_exempt: bool | None = None
        # The running/staged holders the expected pins and COMMUTE
        # handles below were derived from, with each task's share of both
        # (``_msi_commute`` counts COMMUTE writers per handle); each
        # handle's expected pin nodes, and the expected pins whose handle
        # carries no pin there.
        self._msi_running: dict | None = None
        self._msi_shares: dict[int, tuple[list, list]] = {}
        self._msi_expected: dict[tuple[int, int], int] = {}
        self._msi_commute: dict[int, int] = {}
        self._msi_pin_nodes: dict[int, set[int]] = {}
        self._msi_unpinned: set[tuple[int, int]] = set()
        # Per bounded node: its residency as last read, and the resident
        # and recency tables it was read from.
        self._msi_nodes: dict[int, _Residency] = {}
        self._msi_tables: dict[int, tuple[dict, dict]] = {}

    def _replicas_may_vanish(self) -> bool:
        """Whether a node that started with workers has none left alive.

        Only then does the engine drop replicas (those the node hosted),
        so only then may a handle legally have no valid replica.
        """
        if not self.ctx.death_us:
            return False
        workers_of_node = self.ctx.workers_of_node
        return any(not workers_of_node(mid) for mid in self._staffed_nodes)

    def _check_msi(
        self, running: dict[int, list[tuple[Task, int]]], out: list
    ) -> None:
        """Replica coherence, re-checking only what may have changed.

        A handle's verdict depends only on its own state, its expected
        pin counts, its COMMUTE membership, its presence in the bounded
        nodes' resident sets and the replica-loss exemption; a bounded
        node's depends on its resident and recency tables, its usage and
        its resident handles' replicas and sizes. A handle's verdict is
        computed again when one of its inputs changed and re-emitted from
        the cache otherwise. A node's residency is kept per key
        (:class:`_Residency`) from the barrier's log of the residency
        tables' writes, so telling whether its walk would find anything
        costs O(1); only then is the node walked, to word the report.
        Each call reports what a full sweep would, in the same order.
        """
        handles = self.program.handles
        transfers = self.platform.transfers
        bounded = transfers._resident
        last_use = transfers._last_use
        hidx = self._hidx
        n = len(handles)

        # Only a handle the barrier logged can differ from its copy. The
        # checker's own reads below bypass the barrier.
        log = self._handle_log
        if log is None:
            touched = range(n)
        else:
            touched = {hidx[h.hid] for h in log}
            log.clear()
        recheck: set[int] = set()
        moved: set[int] = set()
        valid_was, pins_was = self._msi_valid, self._msi_pins
        flight_was, size_was, home_was = (
            self._msi_flight, self._msi_size, self._msi_home
        )
        for i in touched:
            handle = handles[i]
            size = handle.size
            home = handle.home_node
            # Replicas and size also feed the residency walk.
            if _valid_of(handle) != valid_was[i] or size != size_was[i]:
                moved.add(i)
            elif (_pins_of(handle) != pins_was[i]
                    or _flight_of(handle) != flight_was[i]
                    or home != home_was[i]):
                recheck.add(i)
            size_was[i] = size
            home_was[i] = home
        recheck |= moved

        # Expected pins from the running/staged tasks' take() records;
        # handles commute-written by a running task are exempt from the
        # pins-target-valid check (a concurrent commuting writer's
        # completion legally invalidates a replica another commuter still
        # pins — StarPU's COMMUTE leaves the order unspecified). Both are
        # updated only for the tasks whose holders changed.
        if running != self._msi_running:
            self._msi_update_pins(running, recheck)
        expected_pins = self._msi_expected
        commute_hids = self._msi_commute

        exempt = self._replicas_may_vanish()
        if exempt is not self._msi_exempt:
            self._msi_exempt = exempt
            recheck.update(range(n))

        # Residency: re-read the keys the tables logged. A node whose
        # tables are not the logged ones it was read from is read in full.
        nodes = self._msi_nodes
        tables = self._msi_tables
        res_log = self._residency_log
        written = set(res_log) if res_log else ()
        if res_log:
            res_log.clear()
        for mid, resident in bounded.items():
            lru = last_use[mid]
            saved = tables.get(mid)
            if (
                saved is None or saved[0] is not resident or saved[1] is not lru
                or type(resident) is not ResidencyTable
                or type(lru) is not ResidencyTable
                or (mid, None) in written
            ):
                node = _Residency()
                for hid in resident.keys() | lru.keys():
                    node.update(mid, hid, resident, lru)
                old = nodes.get(mid)
                entered = node.sizes.keys() ^ (old.sizes.keys() if old else ())
                recheck.update(hidx[hid] for hid in entered if hid in hidx)
                nodes[mid] = node
                tables[mid] = (resident, lru)
        for mid in tables.keys() - bounded.keys():
            del tables[mid], nodes[mid]
        for mid, hid in written:
            node = nodes.get(mid)
            if (hid is not None and node is not None
                    and node.update(mid, hid, bounded[mid], last_use[mid])
                    and hid in hidx):
                recheck.add(hidx[hid])
        for i in moved:
            hid = handles[i].hid
            for mid, node in nodes.items():
                if hid in node.sizes:
                    node.update(mid, hid, bounded[mid], last_use[mid])

        found = self._msi_found
        if recheck:
            node_ids = self._node_ids
            unpinned = self._msi_unpinned
            pin_nodes = self._msi_pin_nodes
            for i in recheck:
                handle = handles[i]
                violations = self._msi_handle(
                    handle, node_ids, expected_pins, commute_hids, exempt,
                    bounded,
                )
                if violations:
                    found[i] = violations
                else:
                    found.pop(i, None)
                pins = _pins_of(handle)
                valid_was[i] = frozenset(_valid_of(handle))
                pins_was[i] = pins.copy()
                flight_was[i] = _flight_of(handle).copy()
                for node in pin_nodes.get(handle.hid, ()):
                    if node in pins:
                        unpinned.discard((handle.hid, node))
                    else:
                        unpinned.add((handle.hid, node))
        if found:
            for i in sorted(found):
                out.extend(found[i])

        # Pins on handles the running tasks never pinned, worded in the
        # order the running/staged holders list them.
        if self._msi_unpinned:
            ordered: dict[tuple[int, int], int] = {}
            for entries in running.values():
                for task, node in entries:
                    for handle in task.sched.get("_pinned", ()):
                        pin = (handle.hid, node)
                        ordered[pin] = ordered.get(pin, 0) + 1
            for (hid, node), want in ordered.items():
                handle = handles[hidx[hid]]
                if node not in _pins_of(handle):
                    out.append((
                        "msi",
                        f"{handle.label} should be pinned {want}x on node {node} "
                        f"by running/staged tasks but carries no pin",
                    ))

        usage = transfers._usage
        for mid, resident in bounded.items():
            if not nodes[mid].clean(usage[mid]):
                self._msi_walk(mid, resident, usage[mid], last_use[mid], out)

    def _msi_update_pins(self, running: dict, recheck: set[int]) -> None:
        """Bring the expected pin counts and COMMUTE handles up to the
        running/staged holders, redoing only the tasks whose holders
        changed; the handles whose inputs changed join ``recheck``."""
        old = self._msi_running or {}
        shares = self._msi_shares
        expected = self._msi_expected
        commute = self._msi_commute
        tids = [tid for tid, holders in running.items() if old.get(tid) != holders]
        tids.extend(old.keys() - running.keys())
        pins: set[tuple[int, int]] = set()
        hids: set[int] = set()
        for tid in tids:
            # Take the task's last share back, then add its current one.
            pinned, commuted = shares.pop(tid, ((), ()))
            for counts, keys in ((expected, pinned), (commute, commuted)):
                for key in keys:
                    left = counts[key] - 1
                    if left:
                        counts[key] = left
                    else:
                        del counts[key]
            pins.update(pinned)
            hids.update(commuted)
            holders = running.get(tid)
            if holders:
                pinned = [
                    (handle.hid, node) for task, node in holders
                    for handle in task.sched.get("_pinned", ())
                ]
                commuted = [
                    handle.hid for task, _ in holders
                    for handle, mode in task.accesses if mode is AccessMode.COMMUTE
                ]
                for counts, keys in ((expected, pinned), (commute, commuted)):
                    for key in keys:
                        counts[key] = counts.get(key, 0) + 1
                pins.update(pinned)
                hids.update(commuted)
                shares[tid] = (pinned, commuted)
        self._msi_running = running
        handles, hidx = self.program.handles, self._hidx
        pin_nodes = self._msi_pin_nodes
        unpinned = self._msi_unpinned
        for pin in pins:
            hid, node = pin
            hids.add(hid)
            nodes = pin_nodes.setdefault(hid, set())
            if pin in expected:
                nodes.add(node)
                if node not in _pins_of(handles[hidx[hid]]):
                    unpinned.add(pin)
                    continue
            else:
                nodes.discard(node)
            unpinned.discard(pin)
        recheck.update(map(hidx.__getitem__, hids))

    @staticmethod
    def _msi_walk(mid: int, resident: dict, usage, last_use: dict, out: list) -> None:
        """One bounded node's residency accounting, walked in full."""
        for handle in [h for h in resident.values() if mid not in _valid_of(h)]:
            out.append((
                "msi",
                f"{handle.label} accounted resident on node {mid} "
                f"but not valid there",
            ))
        total = sum([h.size for h in resident.values()])
        if total != usage:
            out.append((
                "msi",
                f"node {mid} usage counter says {usage} "
                f"bytes but resident handles sum to {total}",
            ))
        if resident.keys() != last_use.keys():
            out.append((
                "msi",
                f"node {mid} LRU recency keys diverge from the resident "
                f"set",
            ))

    @staticmethod
    def _msi_handle(
        handle, node_ids, expected_pins, commute_hids, exempt, bounded
    ) -> list[tuple[str, str]]:
        """One handle's replica-set, in-flight, pin and residency checks."""
        out: list[tuple[str, str]] = []
        label = handle.label
        valid = _valid_of(handle)
        if not valid and not exempt:
            out.append(("msi", f"{label} has no valid replica anywhere"))
        if not valid.issubset(node_ids):
            out.append((
                "msi",
                f"{label} valid on unknown nodes {sorted(valid - node_ids)}",
            ))
        for node in _flight_of(handle):
            if node not in valid:
                out.append((
                    "msi",
                    f"{label} has a transfer in flight toward node {node} "
                    f"but no (eagerly registered) replica there",
                ))
        for node, count in _pins_of(handle).items():
            if count <= 0:
                out.append((
                    "msi",
                    f"{label} pin count on node {node} is {count} "
                    f"(stored counts must stay positive)",
                ))
            if node not in valid and handle.hid not in commute_hids:
                out.append((
                    "msi",
                    f"{label} pinned on node {node} but not valid there "
                    f"(a running task's input was invalidated)",
                ))
            want = expected_pins.get((handle.hid, node), 0)
            if count != want:
                out.append((
                    "msi",
                    f"{label} pin count on node {node} is {count} but "
                    f"running/staged tasks account for {want}",
                ))
        for node in valid:
            if (node in bounded and handle.size > 0
                    and node != handle.home_node
                    and handle.hid not in bounded[node]):
                out.append((
                    "msi",
                    f"{label} valid on bounded node {node} but missing "
                    f"from its residency accounting",
                ))
        return out
