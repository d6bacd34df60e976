"""The checker's write barrier.

For the length of a checked run every task and data handle, the
scheduler and its heaps (and their entries), the transfer engine's
residency tables and the control plane (and its job records) wear
logging classes, so the checker re-reads only what was written (or, for
a handle's mutable containers, read). These tests pin the three promises
that make that exact and safe:

* a write made between two events, outside the engine, is in the log and
  reported at the next ``validate``;
* the plain classes come back when the run ends, cleanly or by raising;
* the program then re-runs unchecked bit for bit like a fresh one.
"""

from __future__ import annotations

import re

import pytest

import repro.check.invariants as invariants
from repro.api import SimSpec
from repro.apps.dense import cholesky_program
from repro.check.differential import fingerprint
from repro.control.plane import ControlPlane, JobRecord
from repro.core.heap import HeapEntry, TaskHeap
from repro.runtime.data import DataHandle
from repro.runtime.task import Task, TaskState
from repro.schedulers.multiprio import MultiPrio
from repro.schedulers.multiqueue import MultiQueue
from repro.utils.validation import InvariantError
from tests.control.test_control_e2e import overloaded_run


def _between_events(at: int, write):
    """A checker that calls ``write(checker)`` just before its ``at``-th
    validation, i.e. after the engine finished the previous event."""

    class Meddler(invariants.InvariantChecker):
        def validate(self, next_now, revealed, n_done):
            if self.n_checks + 1 == at:
                assert all(type(t) is not Task for t in self.program.tasks)
                write(self)
            super().validate(next_now, revealed, n_done)

    return Meddler


def _last_task(checker) -> Task:
    # The sink: no event touches it before its predecessors finish.
    return checker.program.tasks[-1]


def _bump_counter(checker):
    _last_task(checker).n_unfinished_preds += 1


def _finish_early(checker):
    _last_task(checker).state = TaskState.DONE


def _stray_pin(checker):
    checker.program.handles[-1]._pins[0] = 1


def _swap_positions(checker):
    heap = max(checker.scheduler.heaps.values(), key=len)
    first, last = heap._a[0], heap._a[-1]
    first.pos, last.pos = last.pos, first.pos


def _nudge_brw(checker):
    checker.scheduler.best_remaining_work[0] += 1.0


def _drop_resident(checker):
    resident = next(r for r in checker.platform.transfers._resident.values() if r)
    del resident[next(iter(resident))]


def _pop_recency(checker):
    transfers = checker.platform.transfers
    mid, resident = next((m, r) for m, r in transfers._resident.items() if r)
    transfers._last_use[mid].pop(next(iter(resident)))


def _queued(checker):
    """A READY task MultiPrio holds, with its live heap entries."""
    return next(
        t for t in reversed(checker.program.tasks)
        if t.state is TaskState.READY and not t.sched.get("mp_taken")
        and t.sched.get("mp_entries")
    )


def _tombstone(checker):
    for entry in _queued(checker).sched["mp_entries"].values():
        entry.dead = True


def _unqueue(checker):
    sched = checker.scheduler
    for mid, entry in list(_queued(checker).sched["mp_entries"].items()):
        sched._remove_entry(sched.heaps[mid], entry, mid)


#: kind -> (write, expected detail, the check it happens before).
WRITES = {
    "counter": (_bump_counter, r"\[conservation\] potrf#\d+ counts 2 unfinished", 7),
    "state": (_finish_early, r"\[task_state\] potrf#\d+: SUBMITTED -> DONE", 7),
    "pins": (_stray_pin, r"\[msi\] A\[4,3\] pin count on node 0 is 1 but", 7),
    # The first check whose heaps hold more than one entry.
    "heap-entry": (
        _swap_positions, r"\[scheduler\] heap\[\d\] structure: entry at 0", 9,
    ),
    "brw": (_nudge_brw, r"\[scheduler\] best_remaining_work\[0\]=", 7),
    # Behind MultiPrio's back: entries tombstoned or removed, no take.
    "tombstone": (_tombstone, r"\[scheduler\] best_remaining_work\[\d\]=", 9),
    "unqueue": (_unqueue, r"\[scheduler\] best_remaining_work\[\d\]=", 9),
    # The first check with a resident replica on intel-v100.
    "residency": (_drop_resident, r"\[msi\] node \d usage counter says", 32),
    "recency": (_pop_recency, r"\[msi\] node \d LRU recency keys diverge", 32),
}


def _checked_run(monkeypatch, program, checker_cls=None, scheduler="multiprio",
                 machine="small-hetero"):
    if checker_cls is not None:
        monkeypatch.setattr(invariants, "InvariantChecker", checker_cls)
    return SimSpec(machine, scheduler, check_invariants=True).run(program)


def _plain(program, sched=None) -> bool:
    ok = (all(type(t) is Task for t in program.tasks)
          and all(type(h) is DataHandle for h in program.handles))
    if sched is None:
        return ok
    transfers = sched.ctx.platform.transfers
    tables = [*transfers._resident.values(), *transfers._last_use.values()]
    heaps = [
        sub for heap in getattr(sched, "heaps", {}).values()
        for sub in getattr(heap, "_subs", (heap,))
    ]
    return (ok and type(sched) in (MultiPrio, MultiQueue)
            and all(type(heap) is TaskHeap for heap in heaps)
            and all(type(e) is HeapEntry for heap in heaps for e in heap)
            and all(type(table) is dict for table in tables))


@pytest.mark.parametrize("kind", sorted(WRITES))
def test_write_between_events_is_reported_next_check(monkeypatch, kind):
    write, detail, at = WRITES[kind]
    program = cholesky_program(5, 384)
    # intel-v100's GPUs have bounded memory, so residency is accounted.
    machine = "intel-v100" if kind in ("residency", "recency") else "small-hetero"
    with pytest.raises(InvariantError) as err:
        _checked_run(monkeypatch, program, _between_events(at, write),
                     machine=machine)
    message = str(err.value)
    assert f"(check #{at}," in message
    assert re.search(detail, message), message


SCHEDULERS = {
    "multiprio": MultiPrio,
    "multiprio-relaxed": lambda: MultiPrio(relaxed=3),
    "multiqueue": MultiQueue,
}


def test_plain_classes_after_a_clean_run(monkeypatch):
    for name, make in SCHEDULERS.items():
        program = cholesky_program(5, 384)
        sched = make()
        _checked_run(monkeypatch, program, scheduler=sched, machine="intel-v100")
        assert _plain(program, sched), name


def test_plain_classes_after_an_invariant_error(monkeypatch):
    for name, make in SCHEDULERS.items():
        program = cholesky_program(5, 384)
        sched = make()
        with pytest.raises(InvariantError):
            _checked_run(monkeypatch, program, _between_events(7, _finish_early),
                         scheduler=sched, machine="intel-v100")
        assert _plain(program, sched), name


def test_plain_control_plane_after_a_checked_stream():
    plane = overloaded_run(check_invariants=True).sim.control
    assert type(plane) is ControlPlane
    assert all(type(rec) is JobRecord for rec in plane.records())


def test_unchecked_rerun_is_bit_identical(monkeypatch):
    program = cholesky_program(5, 384)
    with pytest.raises(InvariantError):
        _checked_run(monkeypatch, program, _between_events(7, _stray_pin))
    # Explicitly unchecked: REPRO_CHECK_INVARIANTS=1 would check it.
    spec = SimSpec("small-hetero", "multiprio", check_invariants=False)
    rerun = fingerprint(spec.run(program), program)
    fresh_program = cholesky_program(5, 384)
    assert rerun == fingerprint(spec.run(fresh_program), fresh_program)


def test_end_run_is_idempotent_without_a_run():
    checker = invariants.InvariantChecker()
    checker.end_run()
    checker.end_run()
