"""The incremental checks agree with the full-sweep references.

``window``, ``conservation`` and ``task_state`` diff per-call snapshots
instead of walking every task; ``msi`` re-checks only the data handles
and residency keys that changed; the MultiPrio and MultiQueue self-checks
re-verify only the heaps and tasks their change log names, and the
control plane's audit only the job records written. These tests run them
beside the references of :mod:`tests.check.reference` and require the
same ``(family, detail)`` lists, order included, on every call;
corrupted runs must raise the same error at the same check number.
"""

from __future__ import annotations

import random
import re
from types import SimpleNamespace

import pytest

import repro.check.invariants as invariants
from repro.api import SimSpec
from repro.apps.dense import cholesky_program
from repro.apps.fmm import fmm_program
from repro.control.plane import ControlPlane
from repro.core.heap import HeapEntry, TaskHeap
from repro.platform.machines import MachineModel, intel_v100
from repro.runtime.faults import FaultModel
from repro.runtime.platform_config import LinkSpec, MachineSpec, MemoryNodeSpec
from repro.runtime.task import AccessMode, Task, TaskState
from repro.schedulers.eager import Eager
from repro.schedulers.multiprio import MultiPrio
from repro.schedulers.multiqueue import MultiQueue
from repro.utils.validation import InvariantError
from tests.check.reference import (
    ReferenceChecker,
    ReferenceSweep,
    control_audit,
    scheduler_check,
)
from tests.conftest import make_fork_join_program
from tests.control.test_control_e2e import overloaded_run

_S = TaskState.SUBMITTED
_READY = TaskState.READY
_RUNNING = TaskState.RUNNING
_DONE = TaskState.DONE
_CXL = TaskState.CANCELLED


class DifferentialChecker(invariants.InvariantChecker):
    """Runs the reference sweeps beside the incremental checks and
    asserts identical violations on every call.

    With ``rng`` set, each call may first corrupt task counters, task
    states, the engine counters passed in, replica state (handles and
    bounded-node accounting), the scheduler's heaps and counters, or a
    control record's status; both sides judge the same corrupted state,
    the corruption is undone before the engine goes on, and violations
    are collected instead of raised.
    """

    rng: "random.Random | None" = None
    runs: list["DifferentialChecker"] = []

    def begin_run(self, **kw) -> None:
        super().begin_run(**kw)
        self.reference = ReferenceSweep(self)
        self.compared: list[list[tuple[str, str]]] = []
        self.msi_compared: list[list[tuple[str, str]]] = []
        self.scheduler_compared: list[list[tuple[str, str]]] = []
        self.control_compared: list[list[tuple[str, str]]] = []
        self.runs.append(self)

    def _corrupt(self, revealed: int, n_done: int):
        rng = self.rng
        tasks = self.program.tasks
        undo = []
        if rng.random() < 0.3:
            for _ in range(rng.randint(1, 3)):
                task = rng.choice(tasks)
                if rng.random() < 0.5:
                    undo.append((task, "n_unfinished_preds", task.n_unfinished_preds))
                    task.n_unfinished_preds += rng.choice((-1, 1))
                else:
                    undo.append((task, "state", task.state))
                    task.state = rng.choice(list(TaskState))
        if rng.random() < 0.1:
            n_done += rng.choice((-1, 1))
        if rng.random() < 0.1:
            revealed = rng.randint(0, len(tasks))
        return revealed, n_done, undo

    def _check_tasks(self, revealed, n_done, prev_now, out):
        undo = []
        if self.rng is not None:
            revealed, n_done, undo = self._corrupt(revealed, n_done)
        new: list[tuple[str, str]] = []
        ref: list[tuple[str, str]] = []
        running = super()._check_tasks(revealed, n_done, prev_now, new)
        ref_running = self.reference.check(revealed, n_done, prev_now, ref)
        for task, attr, value in reversed(undo):
            setattr(task, attr, value)
        assert new == ref, f"check #{self.n_checks}"
        assert running == ref_running, f"check #{self.n_checks}"
        self.compared.append(new)
        out.extend(new)
        return running

    def _corrupt_msi(self):
        """Corrupt one or two random handles or bounded nodes.

        Each corruption swaps in a corrupted copy of one container and
        returns how to put the original object back, so undoing it
        restores identity and iteration order exactly.
        """
        rng = self.rng
        undo = []
        if rng.random() >= 0.3:
            return undo
        transfers = self.platform.transfers
        nodes = sorted(self._node_ids)
        for _ in range(rng.randint(1, 2)):
            handle = rng.choice(self.program.handles)
            kind = rng.choice((
                "unknown-node", "non-positive-pin", "bump-pin", "in-flight",
                "no-replica", "size", "home", "resident", "usage", "lru",
                "resident-dropped", "lru-dropped",
            ))
            if kind in ("resident", "usage", "lru", "resident-dropped",
                        "lru-dropped"):
                if not transfers._resident:
                    continue
                mid = rng.choice(sorted(transfers._resident))
                if kind.endswith("-dropped"):
                    # Behind the transfer engine's back, in the live table;
                    # refilled in order afterwards.
                    table = (transfers._resident if kind == "resident-dropped"
                             else transfers._last_use)[mid]
                    if table:
                        undo.append((table, None, dict(table)))
                        del table[rng.choice(sorted(table))]
                    continue
                if kind == "usage":
                    usage = transfers._usage
                    undo.append((usage, mid, usage[mid]))
                    usage[mid] += rng.choice((-1, 1)) * max(1, handle.size)
                    continue
                table = (transfers._resident if kind == "resident"
                         else transfers._last_use)
                undo.append((table, mid, table[mid]))
                entries = dict(table[mid])
                if entries and (kind == "resident" or rng.random() < 0.5):
                    del entries[rng.choice(sorted(entries))]
                else:
                    entries[handle.hid] = handle if kind == "resident" else 0.0
                table[mid] = entries
                continue
            if kind == "size":
                undo.append((handle, "size", handle.size))
                handle.size += 1
            elif kind == "home":
                undo.append((handle, "home_node", handle.home_node))
                handle.home_node = rng.choice(nodes)
            elif kind in ("unknown-node", "no-replica"):
                undo.append((handle, "valid_nodes", handle.valid_nodes))
                handle.valid_nodes = set() if kind == "no-replica" else (
                    handle.valid_nodes | {999}
                )
            elif kind == "in-flight":
                absent = [n for n in nodes if n not in handle.valid_nodes]
                if absent:
                    undo.append((handle, "_in_flight", handle._in_flight))
                    handle._in_flight = {
                        **handle._in_flight, rng.choice(absent): 0.0
                    }
            else:
                undo.append((handle, "_pins", handle._pins))
                pins = dict(handle._pins)
                if kind == "bump-pin" and pins:
                    node = rng.choice(sorted(pins))
                    pins[node] += 1
                else:
                    pins[rng.choice(nodes)] = (
                        rng.choice((0, -1)) if kind == "non-positive-pin" else 1
                    )
                handle._pins = pins
        return undo

    def _check_msi(self, running, out):
        undo = self._corrupt_msi() if self.rng is not None else []
        new: list[tuple[str, str]] = []
        ref: list[tuple[str, str]] = []
        super()._check_msi(running, new)
        self.reference.msi(running, ref)
        if undo:
            # Nothing moved since: the cached verdicts must come back.
            again: list[tuple[str, str]] = []
            super()._check_msi(running, again)
            assert again == ref, f"check #{self.n_checks} (repeated)"
        for target, key, value in reversed(undo):
            if key is None:
                target.clear()
                target.update(value)
            elif isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
        assert new == ref, f"check #{self.n_checks}"
        self.msi_compared.append(new)
        out.extend(new)

    def _corrupt_scheduler(self):
        """Swap two heap entries' positions or nudge a BRW counter by 1.0
        (MultiPrio), or put a size cache or the live count off by one
        (MultiQueue); returns the undo callables."""
        rng, sched = self.rng, self.scheduler
        undo = []
        if rng.random() >= 0.3:
            return undo
        if isinstance(sched, MultiPrio):
            subs = [
                sub for heap in sched.heaps.values()
                for sub in getattr(heap, "_subs", (heap,)) if len(sub) >= 2
            ]
            if subs and rng.random() < 0.5:
                a, b = rng.sample(list(rng.choice(subs)), 2)
                a.pos, b.pos = b.pos, a.pos

                def swap_back(a=a, b=b):
                    a.pos, b.pos = b.pos, a.pos

                undo.append(swap_back)
            elif sched.best_remaining_work:
                brw = sched.best_remaining_work
                mid = rng.choice(sorted(brw))
                undo.append(lambda mid=mid, was=brw[mid]: brw.__setitem__(mid, was))
                brw[mid] += rng.choice((-1.0, 1.0))
        elif isinstance(sched, MultiQueue):
            step = rng.choice((-1, 1))
            if rng.random() < 0.5 and sched._sizes:
                sizes = sched._sizes[rng.choice(sorted(sched._sizes))]
                idx = rng.randrange(len(sizes))
                undo.append(lambda idx=idx, was=sizes[idx]: sizes.__setitem__(idx, was))
                sizes[idx] += step
            else:
                undo.append(lambda was=sched._n_live: setattr(sched, "_n_live", was))
                sched._n_live += step
        return undo

    def _check_scheduler(self, out):
        undo = self._corrupt_scheduler() if self.rng is not None else []
        new = [("scheduler", str(d)) for d in self.scheduler.check()]
        ref = [("scheduler", str(d)) for d in scheduler_check(self.scheduler)]
        if undo:
            # Nothing was written since: the kept verdicts must come back.
            again = [("scheduler", str(d)) for d in self.scheduler.check()]
            assert again == ref, f"check #{self.n_checks} (repeated)"
        for restore in reversed(undo):
            restore()
        assert new == ref, f"check #{self.n_checks}"
        self.scheduler_compared.append(new)
        out.extend(new)

    def _check_hooks(self, out):
        plane = self.control
        if plane is not None:
            undo = []
            if self.rng is not None and self.rng.random() < 0.3:
                rec = self.rng.choice(list(plane._records.values()))
                undo.append(lambda rec=rec, was=rec.status: setattr(rec, "status", was))
                rec.status = self.rng.choice([
                    s for s in ("pending", "admitted", "done", "shed", "evicted",
                                "lost")
                    if s != rec.status
                ])
            new = plane.audit(self._last_now)
            ref = control_audit(plane)
            if undo:
                again = plane.audit(self._last_now)
                assert again == ref, f"check #{self.n_checks} (repeated)"
            for restore in undo:
                restore()
            assert new == ref, f"check #{self.n_checks}"
            self.control_compared.append(new)
        super()._check_hooks(out)

    def _check_conservation(self, revealed, n_done, out):
        if self.rng is None:
            # Clean runs stay on the fast path: the counters equal the
            # expected ones before any mismatch walk, cancelled tasks
            # included (they are folded in when cancelled).
            assert self._counts == self._expected, f"check #{self.n_checks}"
        return super()._check_conservation(revealed, n_done, out)

    def _report(self, violations):
        if self.rng is None:
            super()._report(violations)


def _overloaded_stream_run():
    sres = overloaded_run(check_invariants=True)
    assert sres.sim.n_cancelled > 0
    return sres.sim


CONFIGS = {
    "cholesky-v100-multiprio": lambda: SimSpec(
        "intel-v100", "multiprio", check_invariants=True
    ).run(cholesky_program(6, 960)),
    "fmm-commute": lambda: SimSpec(
        "small-hetero", "multiprio", check_invariants=True
    ).run(fmm_program(800, height=3, seed=0)),
    "transient-faults": lambda: SimSpec(
        "small-hetero", "multiprio", check_invariants=True,
        faults=FaultModel(task_failure_rate=0.3, max_retries=100, seed=1),
    ).run(cholesky_program(5, 384)),
    "worker-death": lambda: SimSpec(
        "small-hetero", "multiprio", check_invariants=True,
        faults=FaultModel(worker_kills=[(0, 200.0)], seed=0),
    ).run(cholesky_program(5, 384)),
    "window-4": lambda: SimSpec(
        "small-hetero", "multiprio", check_invariants=True,
        submission_window=4,
    ).run(cholesky_program(5, 384)),
    "multiqueue-batch": lambda: SimSpec(
        "small-hetero", "multiqueue", check_invariants=True, batch_step=500.0,
    ).run(cholesky_program(5, 384)),
    "controlled-stream": _overloaded_stream_run,
    "gpu-memory-pressure": lambda: SimSpec(
        intel_v100(gpu_memory_bytes=6 * 960 * 960 * 8), "multiprio",
        check_invariants=True,
    ).run(cholesky_program(6, 960)),
    "dmdas": lambda: SimSpec(
        "intel-v100", "dmdas", check_invariants=True
    ).run(cholesky_program(6, 960)),
    "multiprio-relaxed": lambda: SimSpec(
        "intel-v100", MultiPrio(relaxed=3), check_invariants=True
    ).run(cholesky_program(6, 960)),
    "multiprio-evicting": lambda: SimSpec(
        "small-hetero", MultiPrio(evict_on_reject=True), check_invariants=True
    ).run(cholesky_program(5, 384)),
    "multiqueue": lambda: SimSpec(
        "intel-v100", "multiqueue", check_invariants=True
    ).run(cholesky_program(6, 960)),
}


@pytest.fixture
def differential(monkeypatch):
    """Swap the engine's checker for :class:`DifferentialChecker`."""

    def install(rng=None):
        cls = type("Differential", (DifferentialChecker,), {"rng": rng, "runs": []})
        monkeypatch.setattr(invariants, "InvariantChecker", cls)
        return cls

    return install


def _count_calls(monkeypatch, owner, name, calls):
    plain = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return plain(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


class TestReferenceDifferential:
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_clean_run_matches_reference_every_event(
        self, config, differential, monkeypatch
    ):
        cls = differential()
        # A clean run never needs the from-scratch paths: the logs keep
        # the incremental state exact. MultiQueue counts its live tasks
        # once per run, when the log starts out reset.
        calls = dict.fromkeys(("_brw_problems", "_audit_from_scratch", "_live_tasks"), 0)
        _count_calls(monkeypatch, MultiPrio, "_brw_problems", calls)
        _count_calls(monkeypatch, ControlPlane, "_audit_from_scratch", calls)
        _count_calls(monkeypatch, MultiQueue, "_live_tasks", calls)
        CONFIGS[config]()
        n_multiqueue = sum(isinstance(c.scheduler, MultiQueue) for c in cls.runs)
        assert calls == {
            "_brw_problems": 0, "_audit_from_scratch": 0, "_live_tasks": n_multiqueue,
        }
        assert cls.runs
        for checker in cls.runs:
            assert len(checker.compared) == checker.n_checks > 0
            assert len(checker.msi_compared) == checker.n_checks
            assert len(checker.scheduler_compared) == checker.n_checks
            assert not any(checker.compared) and not any(checker.msi_compared)
            assert not any(checker.scheduler_compared)
            assert not any(checker.control_compared)

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_corrupted_states_match_reference(self, config, differential):
        cls = differential(random.Random(config))
        CONFIGS[config]()
        flagged = [
            v for checker in cls.runs
            for v in (checker.compared + checker.msi_compared
                      + checker.scheduler_compared + checker.control_compared)
            if v
        ]
        families = {f for violations in flagged for f, _ in violations}
        assert flagged and {"conservation", "task_state", "msi"} <= families
        if isinstance(cls.runs[0].scheduler, (MultiPrio, MultiQueue)):
            assert "scheduler" in families
        if cls.runs[0].control is not None:
            assert "control" in families

    def test_memory_pressure_config_evicts(self, differential):
        cls = differential()
        CONFIGS["gpu-memory-pressure"]()
        assert any(c.platform.transfers.n_evictions for c in cls.runs)


class TestMsiCachedVerdicts:
    """A handle or node whose state did not change keeps no stale verdict
    when another input of its check did. White-box: each test corrupts a
    finished run's state and calls the checker (beside the reference)
    with no running tasks."""

    def finished(self, differential, config):
        cls = differential()
        CONFIGS[config]()
        return cls.runs[0]

    def msi(self, checker, running=None) -> list[tuple[str, str]]:
        out: list[tuple[str, str]] = []
        checker._check_msi(running or {}, out)
        return out

    def test_replica_loss_exemption_rejudges_unchanged_handles(self, differential):
        checker = self.finished(differential, "window-4")
        handle = checker.program.handles[0]
        handle.valid_nodes.clear()
        handle._in_flight.clear()
        assert self.msi(checker) == [
            ("msi", f"{handle.label} has no valid replica anywhere")
        ]
        # small-hetero's GPU node has one worker; killing it lets the
        # engine drop replicas, which exempts the unchanged handle.
        gpu = next(w for w in checker.platform.workers if w.arch == "cuda")
        checker.ctx.mark_worker_dead(gpu)
        assert self.msi(checker) == []

    def test_commute_membership_rejudges_pins(self, differential):
        checker = self.finished(differential, "fmm-commute")
        task, handle = next(
            (t, h) for t in checker.program.tasks
            for h, mode in t.accesses if mode is AccessMode.COMMUTE
        )
        node = next(m for m in checker._node_ids if m not in handle.valid_nodes)
        handle._pins[node] = 1
        assert len(self.msi(checker)) == 2  # not valid there; no pinner
        # A running commuter that pins nothing exempts the invalid pin.
        task.sched["_pinned"] = ()
        assert len(self.msi(checker, {task.tid: [(task, node)]})) == 1

    def test_home_node_change_rejudges_residency(self, differential):
        checker = self.finished(differential, "gpu-memory-pressure")
        transfers = checker.platform.transfers
        mid = _resident_node(transfers)
        handle = transfers._resident[mid].pop(next(iter(transfers._resident[mid])))
        del transfers._last_use[mid][handle.hid]
        transfers._usage[mid] -= handle.size
        assert any("missing from its residency" in d for _, d in self.msi(checker))
        handle.home_node = mid  # a home replica is never accounted
        assert self.msi(checker) == []

    def test_node_violations_persist_while_nothing_changes(self, differential):
        checker = self.finished(differential, "gpu-memory-pressure")
        usage = checker.platform.transfers._usage
        mid = next(iter(usage))
        usage[mid] += 1
        first = self.msi(checker)
        assert any("usage counter" in d for _, d in first)
        assert self.msi(checker) == first


def saboteur(base: type) -> type:
    """``base`` whose N-th successful pop calls ``corrupt(task)`` and
    hands out the task it returns instead."""

    class PopSaboteur(base):
        name = "saboteur"

        def __init__(self, after: int, corrupt) -> None:
            super().__init__()
            self._after = after
            self._corrupt = corrupt
            self._pops = 0

        def pop(self, worker):
            task = super().pop(worker)
            if task is not None:
                self._pops += 1
                if self._pops == self._after:
                    return self._corrupt(task)
            return task

    return PopSaboteur


PopSaboteur = saboteur(Eager)


def _running(program, popped):
    return next(
        t for t in program.tasks if t.state is _RUNNING and t is not popped
    )


def _sink(program, popped):
    return program.tasks[-1]


def _set(pick, state):
    def corrupt(program, popped, sched):
        pick(program, popped).state = state
        return popped
    return corrupt


def _ready_last(program, popped):
    # The last READY task in submission order: FIFO Eager reaches it
    # last, so no staging pop of the same event hands it out first.
    return next(
        t for t in reversed(program.tasks)
        if t.state is _READY and t is not popped
    )


def _run_twice(program, popped, sched):
    # READY again passes the engine's pop-time check, so the popping
    # worker starts (or stages) a task that is already held.
    task = _running(program, popped)
    task.state = _READY
    return task


def _drift(program, popped, sched):
    program.tasks[-1].n_unfinished_preds += 1
    return popped


def _msi(corrupt):
    """Corrupt replica state; the popped task is handed out unchanged."""
    def apply(program, popped, sched):
        corrupt(program, sched.ctx.platform.transfers)
        return popped
    return apply


def _pinned_input(program):
    """A handle a running task pinned (in its acquire)."""
    task = next(
        t for t in program.tasks
        if t.state is _RUNNING and t.sched.get("_pinned")
    )
    return task.sched["_pinned"][0]


def _bump_pin(program, transfers):
    handle = _pinned_input(program)
    handle._pins[next(iter(handle._pins))] += 1


def _bounded_gpu():
    """One CPU and one GPU with bounded memory, so residency is accounted
    from the GPU's first fetch on."""
    spec = MachineSpec(
        name="bounded-gpu",
        nodes=(
            MemoryNodeSpec("ram", "ram", "cpu", 1),
            MemoryNodeSpec("gpu0", "gpu", "cuda", 1, capacity=2**30),
        ),
        links=(
            LinkSpec("ram", "gpu0", 12.0, 8.0),
            LinkSpec("gpu0", "ram", 12.0, 8.0),
        ),
    )
    return MachineModel(spec, cpu_scale=1.0, gpu_scale=1.0)


def _resident_node(transfers):
    """A bounded node that holds at least one accounted replica."""
    return next(mid for mid, res in transfers._resident.items() if res)


def _drop_resident(program, transfers):
    resident = transfers._resident[_resident_node(transfers)]
    del resident[next(iter(resident))]


def _usage_drift(program, transfers):
    transfers._usage[_resident_node(transfers)] += 1


def _policy(corrupt):
    """Corrupt the scheduler's own state; the popped task is handed out
    unchanged."""
    def apply(program, popped, sched):
        corrupt(sched)
        return popped
    return apply


def _nudge(table, by):
    """Add ``by`` to the first entry of the scheduler's ``table``."""
    def corrupt(sched):
        counts = getattr(sched, table)
        counts[next(iter(counts))] += by
    return corrupt


def _lru_desync(program, transfers):
    # A recency entry for no resident handle (a dropped one could be
    # re-touched by the popped task's acquire).
    transfers._last_use[_resident_node(transfers)][-1] = 0.0


#: name -> (program factory, pop number, corrupt(program, popped,
#: scheduler), extra SimSpec keywords (``machine`` picks the platform,
#: ``policy`` the saboteur's base, Eager by default), expected detail).
CORRUPTIONS = {
    "ready-never-submitted": (
        lambda: cholesky_program(5, 384), 2, _set(_sink, _READY),
        {"submission_window": 3}, r"\[conservation\].*READY but was never submitted",
    ),
    "submitted-leak": (
        lambda: make_fork_join_program(width=8), 2, _set(_ready_last, _S),
        {}, r"\[conservation\].*neither scheduler-held nor retry-pending",
    ),
    "cancelled-but-held": (
        lambda: make_fork_join_program(width=8), 3, _set(_running, _CXL),
        {}, r"\[conservation\].*is CANCELLED but held",
    ),
    "held-twice": (
        lambda: make_fork_join_program(width=8), 3, _run_twice,
        {}, r"\[conservation\].*held by 2 workers at once",
    ),
    "held-not-running": (
        lambda: make_fork_join_program(width=8), 3, _set(_running, _READY),
        {}, r"\[conservation\].*in state READY, not RUNNING",
    ),
    "completion-count": (
        lambda: make_fork_join_program(width=8), 2, _set(_sink, _DONE),
        {}, r"\[conservation\] engine counted \d+ completions",
    ),
    "untouched-counter-drift": (
        lambda: cholesky_program(6, 384), 2, _drift,
        {}, r"\[conservation\] potrf#55 counts",
    ),
    "illegal-transition": (
        lambda: make_fork_join_program(width=8), 2, _set(_ready_last, _DONE),
        {}, r"\[task_state\].*READY -> DONE \(illegal lifecycle transition\)",
    ),
    "fault-only-move": (
        lambda: make_fork_join_program(width=8), 3, _set(_running, _S),
        {}, r"\[task_state\].* -> SUBMITTED \(fault-only rollback",
    ),
    "control-only-move": (
        lambda: make_fork_join_program(width=8), 2, _set(_sink, _CXL),
        {}, r"\[task_state\].*SUBMITTED -> CANCELLED \(control-only",
    ),
    "msi-unknown-node": (
        lambda: make_fork_join_program(width=8), 3,
        _msi(lambda program, _: program.handles[1].valid_nodes.add(999)),
        {}, r"\[msi\] m0 valid on unknown nodes \[999\]",
    ),
    "msi-non-positive-pin": (
        lambda: make_fork_join_program(width=8), 3,
        _msi(lambda program, _: program.handles[-1]._pins.__setitem__(1, 0)),
        {}, r"\[msi\] sink pin count on node 1 is 0 \(stored counts must stay",
    ),
    "msi-bumped-pin": (
        lambda: make_fork_join_program(width=8), 3, _msi(_bump_pin),
        {}, r"\[msi\] root pin count on node \d+ is \d+ but running/staged "
            r"tasks account for",
    ),
    "msi-in-flight-without-replica": (
        lambda: make_fork_join_program(width=8), 3,
        _msi(lambda program, _: program.handles[-1]._in_flight.__setitem__(1, 0.0)),
        {}, r"\[msi\] sink has a transfer in flight toward node 1",
    ),
    "msi-no-replica-after-cpu-death": (
        lambda: make_fork_join_program(width=8), 3,
        _msi(lambda program, _: program.handles[-1].valid_nodes.clear()),
        {"faults": FaultModel(worker_kills={0: 1.0})},
        r"\[msi\] sink has no valid replica anywhere",
    ),
    "msi-resident-dropped": (
        lambda: make_fork_join_program(width=8), 6, _msi(_drop_resident),
        {"machine": _bounded_gpu()},
        r"\[msi\].*missing from its residency accounting",
    ),
    "msi-usage-drift": (
        lambda: make_fork_join_program(width=8), 6, _msi(_usage_drift),
        {"machine": _bounded_gpu()}, r"\[msi\] node \d+ usage counter says",
    ),
    "msi-lru-desync": (
        lambda: make_fork_join_program(width=8), 6, _msi(_lru_desync),
        {"machine": _bounded_gpu()},
        r"\[msi\] node \d+ LRU recency keys diverge",
    ),
    "msi-untouched-handle-drift": (
        lambda: cholesky_program(6, 384), 2,
        _msi(lambda program, _: program.handles[-1]._pins.__setitem__(0, 1)),
        {}, r"\[msi\] A\[5,4\] pin count on node 0 is 1 but running/staged "
            r"tasks account for 0",
    ),
    "multiprio-brw-nudged": (
        lambda: cholesky_program(5, 384), 3,
        _policy(_nudge("best_remaining_work", 1.0)),
        {"policy": MultiPrio}, r"\[scheduler\] best_remaining_work\[\d+\]=",
    ),
    "multiprio-ready-count": (
        lambda: cholesky_program(5, 384), 3,
        _policy(_nudge("ready_tasks_count", 1)),
        {"policy": MultiPrio}, r"\[scheduler\] ready_tasks_count\[\d+\]=",
    ),
    "multiqueue-size-cache": (
        lambda: cholesky_program(5, 384), 3,
        _policy(lambda sched: sched._sizes["cpu"].__setitem__(0, sched._sizes["cpu"][0] + 1)),
        {"policy": MultiQueue}, r"\[scheduler\] multiqueue: size cache",
    ),
    # A READY task reset behind the policy's back: it leaves the BRW
    # sums and the live tasks although no policy method ran.
    "multiprio-ready-reset": (
        lambda: cholesky_program(5, 384), 3, _set(_ready_last, _S),
        {"policy": MultiPrio}, r"\[scheduler\] best_remaining_work\[\d+\]=",
    ),
    "multiqueue-ready-reset": (
        lambda: cholesky_program(5, 384), 3, _set(_ready_last, _S),
        {"policy": MultiQueue}, r"\[scheduler\] multiqueue: live count",
    ),
    "multiqueue-live-count": (
        lambda: cholesky_program(5, 384), 3,
        _policy(lambda sched: setattr(sched, "_n_live", sched._n_live - 1)),
        {"policy": MultiQueue}, r"\[scheduler\] multiqueue: live count",
    ),
}


class TestCorruptionMatchesReference:
    def first_error(self, monkeypatch, checker_cls, name) -> str:
        make, after, corrupt, kw, _ = CORRUPTIONS[name]
        monkeypatch.setattr(invariants, "InvariantChecker", checker_cls)
        program = make()
        kw = dict(kw)
        sched = saboteur(kw.pop("policy", Eager))(
            after,
            lambda popped: corrupt(program, popped, sched),
        )
        machine = kw.pop("machine", "small-hetero")
        spec = SimSpec(machine, sched, check_invariants=True, **kw)
        with pytest.raises(InvariantError) as err:
            spec.run(program)
        return str(err.value)

    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_raises_like_the_reference(self, monkeypatch, name):
        original = invariants.InvariantChecker
        got = self.first_error(monkeypatch, original, name)
        want = self.first_error(monkeypatch, ReferenceChecker, name)
        assert re.search(CORRUPTIONS[name][-1], got), got
        check_no = re.compile(r"check #(\d+)")
        assert check_no.search(got)[1] == check_no.search(want)[1]
        assert got == want


def _misplace_nth_insert(monkeypatch, n: int) -> None:
    """The n-th heap insert leaves its entry with a wrong position,
    written past the entry's own barrier (as a bug in the heap would)."""
    plain = TaskHeap.insert
    count = [0]

    def insert(self, task, gain, prio):
        entry = plain(self, task, gain, prio)
        count[0] += 1
        if count[0] == n:
            HeapEntry.pos.__set__(entry, entry.pos + 1)
        return entry

    monkeypatch.setattr(TaskHeap, "insert", insert)


def _unsifted_after(monkeypatch, name: str, n: int) -> None:
    """From the n-th call on, MultiQueue's ``heappush``/``heappop``
    append or take the first slot without restoring the heap order."""
    import repro.schedulers.multiqueue as multiqueue

    plain = getattr(multiqueue, name)
    count = [0]

    def broken(heap, *item):
        count[0] += 1
        if count[0] < n:
            return plain(heap, *item)
        return heap.append(*item) if item else heap.pop(0)

    monkeypatch.setattr(multiqueue, name, broken)


#: name -> (scheduler factory, break(monkeypatch), expected detail).
BUGGY_QUEUES = {
    "multiprio-insert-misplaced": (
        MultiPrio, lambda mp: _misplace_nth_insert(mp, 12),
        r"\[scheduler\] heap\[\d\] structure: entry at \d+ thinks it is at",
    ),
    # One heap per arch (k=1), so the queues grow deep enough to break.
    "multiqueue-push-unsifted": (
        lambda: MultiQueue(k=1), lambda mp: _unsifted_after(mp, "heappush", 8),
        r"\[scheduler\] multiqueue: heap order violated",
    ),
    "multiqueue-pop-unsifted": (
        lambda: MultiQueue(k=1), lambda mp: _unsifted_after(mp, "heappop", 3),
        r"\[scheduler\] multiqueue: heap order violated",
    ),
}


class TestBuggyQueuesMatchReference:
    """A queue whose own code breaks its invariants is reported like the
    reference reports it: the barrier logs the queue the buggy method
    wrote, not only the fields it wrote through."""

    def first_error(self, monkeypatch, checker_cls, name) -> str:
        make, breaks, _ = BUGGY_QUEUES[name]
        with monkeypatch.context() as mp:
            mp.setattr(invariants, "InvariantChecker", checker_cls)
            breaks(mp)
            spec = SimSpec("small-hetero", make(), check_invariants=True)
            with pytest.raises(InvariantError) as err:
                spec.run(cholesky_program(5, 384))
        return str(err.value)

    @pytest.mark.parametrize("name", sorted(BUGGY_QUEUES))
    def test_raises_like_the_reference(self, monkeypatch, name):
        got = self.first_error(monkeypatch, invariants.InvariantChecker, name)
        want = self.first_error(monkeypatch, ReferenceChecker, name)
        assert re.search(BUGGY_QUEUES[name][-1], got), got
        assert got == want


def test_cancelled_successor_entry_freezes_with_its_counter():
    """A task cancelled while its predecessor runs keeps its counter (the
    engine releases no cancelled successor); its expected entry freezes
    too, so the run stays on the one-comparison fast path."""
    pred, succ = Task(0, "t"), Task(1, "t")
    pred.succs.append(succ)
    succ.preds.append(pred)
    succ.n_unfinished_preds = 1
    checker = invariants.InvariantChecker()
    checker.program = SimpleNamespace(tasks=[pred, succ])
    checker._init_tasks()
    pred.state, succ.state = _RUNNING, _CXL
    checker._sync()
    pred.state = _DONE
    checker._sync()
    assert checker._counts == checker._expected == [0, 1]
    succ.state = _S  # back from CANCELLED: the entry is recounted
    checker._sync()
    assert checker._expected == [0, 0] and checker._zero_submitted == {1}
