"""Full-sweep references for the checker's incremental checks.

The ``window``, ``conservation``, ``task_state`` and ``msi`` families of
:class:`repro.check.invariants.InvariantChecker` are incremental: they
diff per-call snapshots and keep derived state. So are the policies'
self-checks (:meth:`MultiPrio.check`, :meth:`MultiQueue.check`) and the
control plane's audit. :class:`ReferenceSweep` and the functions below
are the straightforward versions they must agree with, violation for
violation: on every call they walk every task, recount each task's
unfinished predecessors from their states, rescan the revealed prefix
for cancelled tasks, re-check every data handle and every bounded
node's residency, every heap entry and every job record. They are
quadratic-ish and only meant for tests.
"""

from __future__ import annotations

import math

from repro.check.invariants import (
    _CONTROL_ONLY,
    _FAULT_ONLY,
    _LEGAL,
    InvariantChecker,
)
from repro.control.plane import ControlPlane
from repro.runtime.events import TASK_RETRY
from repro.runtime.task import AccessMode, Task, TaskState
from repro.schedulers.multiprio import MultiPrio
from repro.schedulers.multiqueue import MultiQueue

_S = TaskState.SUBMITTED
_READY = TaskState.READY
_RUNNING = TaskState.RUNNING
_DONE = TaskState.DONE
_CXL = TaskState.CANCELLED


class ReferenceSweep:
    """The task families and ``msi`` as full sweeps over the checker's
    bound run state; keeps its own previous-state list."""

    def __init__(self, checker: InvariantChecker) -> None:
        self.checker = checker
        self.prev_state = [t.state for t in checker.program.tasks]

    def check(
        self, revealed: int, n_done: int, prev_now: float, out: list
    ) -> dict[int, list[tuple[Task, int]]]:
        """Same contract and family order as ``InvariantChecker._check_tasks``."""
        self.window(revealed, n_done, prev_now, out)
        running = self.conservation(revealed, n_done, out)
        self.task_states(out)
        return running

    def window(
        self, revealed: int, n_done: int, prev_now: float, out: list
    ) -> None:
        c = self.checker
        window = c.window
        tasks = c.program.tasks
        n_total = len(tasks)
        n_cxl_rev = (
            sum(1 for t in tasks[:revealed] if t.state is _CXL)
            if c.control is not None
            else 0
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
            releases = c.releases
            gated = releases is not None and releases[revealed] > prev_now
            if not window_full and not gated:
                out.append((
                    "window",
                    f"submission stalled at task {revealed}/{n_total} with "
                    f"{in_flight} in flight although neither the window "
                    f"({window}) nor a release time blocks it: the reveal "
                    f"loop leaked",
                ))

    def task_states(self, out: list) -> None:
        c = self.checker
        prev = self.prev_state
        fault = c.fault_active
        controlled = c.control is not None
        for task in c.program.tasks:
            before, after = prev[task.tid], task.state
            if before is after:
                continue
            move = (before, after)
            if (move in _LEGAL or (fault and move in _FAULT_ONLY)
                    or (controlled and move in _CONTROL_ONLY)):
                prev[task.tid] = after
                continue
            if move in _CONTROL_ONLY:
                why = "control-only cancellation without a control plane"
            elif move in _FAULT_ONLY:
                why = "fault-only rollback without a fault model"
            else:
                why = "illegal lifecycle transition"
            out.append((
                "task_state",
                f"{task.name}: {before.name} -> {after.name} ({why})",
            ))
            prev[task.tid] = after

    def conservation(
        self, revealed: int, n_done: int, out: list
    ) -> dict[int, list[tuple[Task, int]]]:
        c = self.checker
        node_of = c._node_of_wid
        holders: dict[int, list[int]] = {}
        running: dict[int, list[tuple[Task, int]]] = {}
        for wid, task in enumerate(c.current):
            if task is not None:
                holders.setdefault(task.tid, []).append(wid)
                running.setdefault(task.tid, []).append((task, node_of[wid]))
        for wid, entry in enumerate(c.staged):
            if entry is not None:
                task = entry[0]
                holders.setdefault(task.tid, []).append(wid)
                running.setdefault(task.tid, []).append((task, node_of[wid]))

        retry_pending: set[int] | None = None
        done_count = 0
        for task in c.program.tasks:
            state = task.state
            if state is _DONE:
                done_count += 1
            if state is _CXL:
                if task.tid in holders:
                    out.append((
                        "conservation",
                        f"{task.name} is CANCELLED but held by worker(s) "
                        f"{holders[task.tid]}",
                    ))
                continue
            want = sum(
                1 for p in task.preds
                if p.state is not _DONE and p.state is not _CXL
            )
            if task.n_unfinished_preds != want:
                out.append((
                    "conservation",
                    f"{task.name} counts {task.n_unfinished_preds} unfinished "
                    f"predecessors but {want} of {len(task.preds)} are not DONE",
                ))
            wids = holders.get(task.tid)
            if wids is not None:
                if state is not _RUNNING:
                    out.append((
                        "conservation",
                        f"{task.name} held by worker(s) {wids} but in state "
                        f"{state.name}, not RUNNING",
                    ))
                if len(wids) > 1:
                    out.append((
                        "conservation",
                        f"{task.name} held by {len(wids)} workers at once: {wids}",
                    ))
                continue
            if state is _RUNNING:
                out.append((
                    "conservation",
                    f"{task.name} is RUNNING but no worker holds it "
                    f"(neither current nor staged)",
                ))
            elif state is _READY and task.tid >= revealed:
                out.append((
                    "conservation",
                    f"{task.name} is READY but was never submitted "
                    f"(revealed={revealed})",
                ))
            elif state is _S and task.tid < revealed and task.n_unfinished_preds == 0:
                if retry_pending is None:
                    retry_pending = {
                        payload.tid
                        for _, _, kind, payload in c.events
                        if kind == TASK_RETRY
                    }
                if task.tid not in retry_pending:
                    out.append((
                        "conservation",
                        f"{task.name} is SUBMITTED with all predecessors done "
                        f"but is neither scheduler-held nor retry-pending: "
                        f"the task leaked",
                    ))

        if done_count != n_done:
            out.append((
                "conservation",
                f"engine counted {n_done} completions but {done_count} "
                f"tasks are DONE",
            ))
        return running

    def msi(self, running: dict[int, list[tuple[Task, int]]], out: list) -> None:
        """Same contract as ``InvariantChecker._check_msi``."""
        c = self.checker
        transfers = c.platform.transfers
        node_ids = c._node_ids
        exempt = c._replicas_may_vanish()

        expected_pins: dict[tuple[int, int], int] = {}
        commute_hids: set[int] = set()
        for entries in running.values():
            for task, node in entries:
                for handle in task.sched.get("_pinned", ()):
                    key = (handle.hid, node)
                    expected_pins[key] = expected_pins.get(key, 0) + 1
                for handle, mode in task.accesses:
                    if mode is AccessMode.COMMUTE:
                        commute_hids.add(handle.hid)

        bounded = transfers._resident
        for handle in c.program.handles:
            label = handle.label
            if not handle.valid_nodes and not exempt:
                out.append(("msi", f"{label} has no valid replica anywhere"))
            if not handle.valid_nodes.issubset(node_ids):
                out.append((
                    "msi",
                    f"{label} valid on unknown nodes "
                    f"{sorted(handle.valid_nodes - node_ids)}",
                ))
            for node in handle._in_flight:
                if node not in handle.valid_nodes:
                    out.append((
                        "msi",
                        f"{label} has a transfer in flight toward node {node} "
                        f"but no (eagerly registered) replica there",
                    ))
            for node, count in handle._pins.items():
                if count <= 0:
                    out.append((
                        "msi",
                        f"{label} pin count on node {node} is {count} "
                        f"(stored counts must stay positive)",
                    ))
                if (node not in handle.valid_nodes
                        and handle.hid not in commute_hids):
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
            for node in handle.valid_nodes:
                if (node in bounded and handle.size > 0
                        and node != handle.home_node
                        and handle.hid not in bounded[node]):
                    out.append((
                        "msi",
                        f"{label} valid on bounded node {node} but missing "
                        f"from its residency accounting",
                    ))
        for (hid, node), want in expected_pins.items():
            handle = c.program.handles[c._hidx[hid]]
            if node not in handle._pins:
                out.append((
                    "msi",
                    f"{handle.label} should be pinned {want}x on node {node} "
                    f"by running/staged tasks but carries no pin",
                ))

        bounded_node_walk(transfers, out)


def bounded_node_walk(transfers, out: list) -> None:
    """Every bounded node's residency accounting against its handles."""
    for mid, resident in transfers._resident.items():
        total = 0
        for handle in resident.values():
            total += handle.size
            if mid not in handle.valid_nodes:
                out.append((
                    "msi",
                    f"{handle.label} accounted resident on node {mid} "
                    f"but not valid there",
                ))
        if total != transfers._usage[mid]:
            out.append((
                "msi",
                f"node {mid} usage counter says {transfers._usage[mid]} "
                f"bytes but resident handles sum to {total}",
            ))
        if resident.keys() != transfers._last_use[mid].keys():
            out.append((
                "msi",
                f"node {mid} LRU recency keys diverge from the resident "
                f"set",
            ))


def multiprio_check(sched: MultiPrio) -> list[str]:
    """:meth:`MultiPrio.check` as a sweep over every heap and entry."""
    problems: list[str] = []
    for mid, heap in sched.heaps.items():
        try:
            heap.check_invariants()
        except AssertionError as exc:
            problems.append(f"heap[{mid}] structure: {exc}")
        counted = sched.ready_tasks_count.get(mid)
        if counted != len(heap):
            problems.append(
                f"ready_tasks_count[{mid}]={counted} but heap holds "
                f"{len(heap)} entries"
            )
    expect: dict[int, float] = {mid: 0.0 for mid in sched.best_remaining_work}
    # Each task once, in the order its first untombstoned entry comes.
    tasks: dict[Task, None] = {}
    for heap in sched.heaps.values():
        tasks.update(dict.fromkeys([e.task for e in heap if not e.dead]))
    for task in tasks:
        if task.state is not _READY or task.sched.get("mp_taken", False):
            continue
        delta = task.sched.get("mp_best_delta", 0.0)
        for mid in task.sched.get("mp_brw_nodes", ()):
            if mid in expect:
                expect[mid] += delta
    for mid, want in expect.items():
        got = sched.best_remaining_work[mid]
        if abs(got - want) > 1e-6 * max(1.0, abs(want)):
            problems.append(
                f"best_remaining_work[{mid}]={got!r} but the live "
                f"entries sum to {want!r}"
            )
    return problems


def multiqueue_check(sched: MultiQueue) -> list[str]:
    """:meth:`MultiQueue.check` as a sweep over every queued entry."""
    violations: list[str] = []
    live_tids: set[int] = set()
    for arch, group in sched._groups.items():
        for idx, heap in enumerate(group):
            if sched._sizes[arch][idx] != len(heap):
                violations.append(
                    f"multiqueue: size cache {sched._sizes[arch][idx]} != "
                    f"len {len(heap)} for {arch}[{idx}]"
                )
            for pos, entry in enumerate(heap):
                if pos > 0 and heap[(pos - 1) >> 1] > entry:
                    violations.append(
                        f"multiqueue: heap order violated in {arch}[{idx}]"
                    )
                if sched._is_live(entry[3], entry[2]):
                    live_tids.add(entry[3].tid)
    if len(live_tids) != sched._n_live:
        violations.append(
            f"multiqueue: live count {sched._n_live} != "
            f"{len(live_tids)} distinct live tasks"
        )
    return violations


def scheduler_check(sched) -> list[str]:
    """The full sweep of ``sched``'s self-check (its own, when it keeps
    no incremental state)."""
    if isinstance(sched, MultiPrio):
        return multiprio_check(sched)
    if isinstance(sched, MultiQueue):
        return multiqueue_check(sched)
    return sched.check()


def control_audit(plane: ControlPlane) -> list[tuple[str, str]]:
    """:meth:`ControlPlane.audit` re-derived from every job record."""
    out = []
    n_seen = n_admitted = n_shed = n_pending = 0
    inflight = 0.0
    for rec in plane._records.values():
        if rec.first_decided_us is None:
            continue
        n_seen += 1
        if rec.status in ("admitted", "done", "evicted"):
            n_admitted += 1
        elif rec.status == "shed":
            n_shed += 1
            if rec.qos == "guaranteed":
                out.append(f"guaranteed job j{rec.jid} has status 'shed'")
        elif rec.status == "pending":
            n_pending += 1
            if rec.n_delays == 0:
                out.append(
                    f"job j{rec.jid} was decided but is pending with "
                    f"no delay recorded: the decision leaked"
                )
        else:
            out.append(f"job j{rec.jid} has unknown status {rec.status!r}")
        if rec.status == "admitted":
            inflight += rec.remaining_us
        if rec.n_left < 0 or rec.n_cancelled > rec.n_tasks:
            out.append(
                f"job j{rec.jid} task accounting corrupt: n_left="
                f"{rec.n_left}, n_cancelled={rec.n_cancelled}/{rec.n_tasks}"
            )
    if n_seen != n_admitted + n_shed + n_pending:
        out.append(
            f"credit conservation broken: {n_seen} decided jobs != "
            f"{n_admitted} admitted + {n_shed} shed + {n_pending} delayed"
        )
    if n_seen != plane.n_arrived:
        out.append(
            f"arrival counter {plane.n_arrived} disagrees with "
            f"{n_seen} first-decided records"
        )
    if not math.isinf(inflight) and abs(inflight - plane.inflight_us) > max(
        1e-6, 1e-9 * abs(inflight)
    ):
        out.append(
            f"in-flight gauge {plane.inflight_us:.3f}us diverges from the "
            f"sum of admitted jobs' remaining work {inflight:.3f}us"
        )
    cfg = plane.config
    if cfg.max_inflight_us is not None and plane.inflight_us > (
        cfg.max_inflight_us + 1e-6
    ):
        g_work = sum(
            r.remaining_us for r in plane._records.values()
            if r.status == "admitted" and r.qos == "guaranteed"
        )
        if plane.inflight_us - g_work > cfg.max_inflight_us + 1e-6:
            out.append(
                f"in-flight work {plane.inflight_us:.1f}us exceeds the "
                f"budget {cfg.max_inflight_us:.1f}us beyond what "
                f"guaranteed-class overdraft ({g_work:.1f}us) explains"
            )
    out.extend(plane.accountant.audit())
    return [("control", detail) for detail in out]


class ReferenceChecker(InvariantChecker):
    """An :class:`InvariantChecker` whose incremental families, scheduler
    self-check and control audit are the full sweeps."""

    def begin_run(self, **kw) -> None:
        super().begin_run(**kw)
        self.reference = ReferenceSweep(self)

    def _check_tasks(self, revealed, n_done, prev_now, out):
        return self.reference.check(revealed, n_done, prev_now, out)

    def _check_msi(self, running, out):
        self.reference.msi(running, out)

    def _check_hooks(self, out):
        for hook in self.hooks:
            if isinstance(hook, ControlPlane):
                out.extend(control_audit(hook))
            elif hasattr(hook, "audit"):
                out.extend(hook.audit(self._last_now))

    def _check_scheduler(self, out):
        out.extend(("scheduler", str(d)) for d in scheduler_check(self.scheduler))
