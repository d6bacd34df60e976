"""Full-sweep reference for the checker's incremental families.

The ``window``, ``conservation``, ``task_state`` and ``msi`` families of
:class:`repro.check.invariants.InvariantChecker` are incremental: they
diff per-call snapshots and keep derived state. :class:`ReferenceSweep`
is the straightforward version they must agree with, violation for
violation: on every call it walks every task, recounts each task's
unfinished predecessors from their states, rescans the revealed prefix
for cancelled tasks, and re-checks every data handle and every bounded
node's residency. It is quadratic-ish and only meant for tests.
"""

from __future__ import annotations

from repro.check.invariants import (
    _CONTROL_ONLY,
    _FAULT_ONLY,
    _LEGAL,
    InvariantChecker,
)
from repro.runtime.events import TASK_RETRY
from repro.runtime.task import AccessMode, Task, TaskState

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

        for mid, resident in bounded.items():
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


class ReferenceChecker(InvariantChecker):
    """An :class:`InvariantChecker` whose incremental families are the
    full sweep."""

    def begin_run(self, **kw) -> None:
        super().begin_run(**kw)
        self.reference = ReferenceSweep(self)

    def _check_tasks(self, revealed, n_done, prev_now, out):
        return self.reference.check(revealed, n_done, prev_now, out)

    def _check_msi(self, running, out):
        self.reference.msi(running, out)
