"""The incremental task families agree with the full-sweep reference.

``window``, ``conservation`` and ``task_state`` diff per-call snapshots
instead of walking every task. These tests run them beside
:class:`tests.check.reference.ReferenceSweep` and require the same
``(family, detail)`` lists, order included, on every call; corrupted runs
must raise the same error at the same check number.
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
from repro.runtime.faults import FaultModel
from repro.runtime.task import Task, TaskState
from repro.schedulers.eager import Eager
from repro.utils.validation import InvariantError
from tests.check.reference import ReferenceChecker, ReferenceSweep
from tests.conftest import make_fork_join_program
from tests.control.test_control_e2e import overloaded_run

_S = TaskState.SUBMITTED
_READY = TaskState.READY
_RUNNING = TaskState.RUNNING
_DONE = TaskState.DONE
_CXL = TaskState.CANCELLED


class DifferentialChecker(invariants.InvariantChecker):
    """Runs the reference sweep beside the incremental task families and
    asserts identical violations on every call.

    With ``rng`` set, each call may first corrupt task counters, task
    states or the engine counters passed in; both sides judge the same
    corrupted state, the corruption is undone before the engine goes on,
    and violations are collected instead of raised.
    """

    rng: "random.Random | None" = None
    runs: list["DifferentialChecker"] = []

    def begin_run(self, **kw) -> None:
        super().begin_run(**kw)
        self.reference = ReferenceSweep(self)
        self.compared: list[list[tuple[str, str]]] = []
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
}


@pytest.fixture
def differential(monkeypatch):
    """Swap the engine's checker for :class:`DifferentialChecker`."""

    def install(rng=None):
        cls = type("Differential", (DifferentialChecker,), {"rng": rng, "runs": []})
        monkeypatch.setattr(invariants, "InvariantChecker", cls)
        return cls

    return install


class TestReferenceDifferential:
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_clean_run_matches_reference_every_event(self, config, differential):
        cls = differential()
        CONFIGS[config]()
        assert cls.runs
        for checker in cls.runs:
            assert len(checker.compared) == checker.n_checks > 0
            assert not any(checker.compared)

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_corrupted_states_match_reference(self, config, differential):
        cls = differential(random.Random(config))
        CONFIGS[config]()
        flagged = [v for checker in cls.runs for v in checker.compared if v]
        families = {f for violations in flagged for f, _ in violations}
        assert flagged and {"conservation", "task_state"} <= families


class PopSaboteur(Eager):
    """Delegates to Eager; the N-th successful pop calls ``corrupt(task)``
    and hands out the task it returns instead."""

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


def _running(program, popped):
    return next(
        t for t in program.tasks if t.state is _RUNNING and t is not popped
    )


def _sink(program, popped):
    return program.tasks[-1]


def _set(pick, state):
    def corrupt(program, popped):
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


def _run_twice(program, popped):
    # READY again passes the engine's pop-time check, so the popping
    # worker starts (or stages) a task that is already held.
    task = _running(program, popped)
    task.state = _READY
    return task


def _drift(program, popped):
    program.tasks[-1].n_unfinished_preds += 1
    return popped


#: name -> (program factory, pop number, corrupt(program, popped), extra
#: SimSpec keywords, expected detail).
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
}


class TestCorruptionMatchesReference:
    def first_error(self, monkeypatch, checker_cls, name) -> str:
        make, after, corrupt, kw, _ = CORRUPTIONS[name]
        monkeypatch.setattr(invariants, "InvariantChecker", checker_cls)
        program = make()
        sched = PopSaboteur(after, lambda popped: corrupt(program, popped))
        spec = SimSpec("small-hetero", sched, check_invariants=True, **kw)
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
