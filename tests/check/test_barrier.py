"""The checker's write barrier.

For the length of a checked run every task and data handle wears a
logging subclass, so the checker re-reads only what was written (or, for
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
from repro.runtime.data import DataHandle
from repro.runtime.task import Task, TaskState
from repro.utils.validation import InvariantError


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


WRITES = {
    "counter": (_bump_counter, r"\[conservation\] potrf#\d+ counts 2 unfinished"),
    "state": (_finish_early, r"\[task_state\] potrf#\d+: SUBMITTED -> DONE"),
    "pins": (_stray_pin, r"\[msi\] A\[4,3\] pin count on node 0 is 1 but"),
}


def _checked_run(monkeypatch, program, checker_cls=None):
    if checker_cls is not None:
        monkeypatch.setattr(invariants, "InvariantChecker", checker_cls)
    return SimSpec("small-hetero", "multiprio", check_invariants=True).run(program)


def _plain(program) -> bool:
    return (all(type(t) is Task for t in program.tasks)
            and all(type(h) is DataHandle for h in program.handles))


@pytest.mark.parametrize("kind", sorted(WRITES))
def test_write_between_events_is_reported_next_check(monkeypatch, kind):
    write, detail = WRITES[kind]
    program = cholesky_program(5, 384)
    with pytest.raises(InvariantError) as err:
        _checked_run(monkeypatch, program, _between_events(7, write))
    message = str(err.value)
    assert "(check #7," in message
    assert re.search(detail, message), message


def test_plain_classes_after_a_clean_run(monkeypatch):
    program = cholesky_program(5, 384)
    _checked_run(monkeypatch, program)
    assert _plain(program)


def test_plain_classes_after_an_invariant_error(monkeypatch):
    program = cholesky_program(5, 384)
    with pytest.raises(InvariantError):
        _checked_run(monkeypatch, program, _between_events(7, _finish_early))
    assert _plain(program)


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
