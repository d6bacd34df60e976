"""Trace tooling tests: records, idle accounting, Gantt, critical path.

Every trace is built from ``TaskEnd`` / ``WorkerDeath`` events, the one
way records enter a :class:`~repro.runtime.trace.Trace`.
"""

import pytest

from repro.runtime.task import Task
from repro.runtime.trace import worker_idle_fraction
from repro.runtime.worker import Worker
from tests.conftest import make_trace


def make_workers():
    return [Worker(0, "cpu", 0, "cpu0"), Worker(1, "cuda", 1, "gpu0")]


def make_task(tid, preds=()):
    task = Task(tid, "k")
    for p in preds:
        task.preds.append(p)
        p.succs.append(task)
    return task


class TestAccounting:
    def test_makespan_and_busy(self):
        workers = make_workers()
        t0, t1 = make_task(0), make_task(1)
        trace = make_trace(
            workers,
            (t0, workers[0], 0.0, 0.0, 10.0),
            (t1, workers[1], 0.0, 5.0, 20.0),
        )
        assert trace.makespan() == 20.0
        assert trace.busy_time(0) == 10.0
        assert trace.busy_time(1) == 15.0
        assert trace.wait_time(1) == 5.0

    def test_idle_fraction(self):
        workers = make_workers()
        trace = make_trace(
            workers,
            (make_task(0), workers[0], 0.0, 0.0, 5.0),
            (make_task(1), workers[1], 0.0, 0.0, 20.0),
        )
        assert trace.idle_fraction(0) == pytest.approx(0.75)
        assert trace.idle_fraction(1) == pytest.approx(0.0)

    def test_idle_fraction_of_dead_worker(self):
        """A fail-stop casualty is idle only relative to its lifetime."""
        workers = make_workers()
        trace = make_trace(
            workers,
            (make_task(0), workers[0], 0.0, 1.0, 5.0),
            (make_task(1), workers[1], 0.0, 0.0, 20.0),
            deaths=[(workers[0], 10.0)],
        )
        assert trace.death_us == {0: 10.0}
        assert trace.idle_fraction(0) == pytest.approx(0.5)
        assert trace.idle_fraction(1) == pytest.approx(0.0)

    def test_worker_idle_fraction_formula(self):
        # 5 of 10 us occupied (busy + wait); none; all; over-full clamps.
        assert worker_idle_fraction(5.0, 10.0) == pytest.approx(0.5)
        assert worker_idle_fraction(0.0, 10.0) == 1.0
        assert worker_idle_fraction(10.0, 10.0) == 0.0
        assert worker_idle_fraction(12.0, 10.0) == 0.0
        # Death caps the horizon; a death after the makespan does not.
        assert worker_idle_fraction(2.0, 10.0, 4.0) == pytest.approx(0.5)
        assert worker_idle_fraction(5.0, 10.0, 30.0) == pytest.approx(0.5)

    def test_worker_idle_fraction_zero_makespan(self):
        assert worker_idle_fraction(0.0, 0.0) == 0.0
        assert worker_idle_fraction(0.0, 10.0, 0.0) == 0.0

    def test_empty_trace(self):
        trace = make_trace(make_workers())
        assert trace.makespan() == 0.0
        assert trace.idle_fraction(0) == 0.0
        assert trace.gantt_ascii() == "(empty trace)"

    def test_per_worker_summary(self):
        workers = make_workers()
        trace = make_trace(workers, (make_task(0), workers[0], 0.0, 1.0, 2.0))
        rows = trace.per_worker_summary()
        assert len(rows) == 2
        assert rows[0]["n_tasks"] == 1
        assert rows[1]["n_tasks"] == 0


class TestPracticalCriticalPath:
    def test_chain_through_dependencies(self):
        workers = make_workers()
        a = make_task(0)
        b = make_task(1, preds=[a])
        c = make_task(2, preds=[b])
        trace = make_trace(
            workers,
            (a, workers[0], 0.0, 0.0, 5.0),
            (b, workers[1], 5.0, 5.0, 9.0),
            (c, workers[0], 9.0, 9.0, 15.0),
        )
        chain = trace.practical_critical_path([a, b, c])
        assert [r.tid for r in chain] == [0, 1, 2]

    def test_worker_occupancy_blocker(self):
        """A task delayed by its worker's previous task, not by a DAG
        predecessor, must chain through the occupying task."""
        workers = make_workers()
        a = make_task(0)
        b = make_task(1)  # independent of a
        trace = make_trace(
            workers,
            (a, workers[0], 0.0, 0.0, 8.0),
            (b, workers[0], 8.0, 8.0, 10.0),
        )
        chain = trace.practical_critical_path([a, b])
        assert [r.tid for r in chain] == [0, 1]


class TestGantt:
    def test_gantt_contains_worker_rows(self):
        workers = make_workers()
        trace = make_trace(workers, (make_task(0), workers[0], 0.0, 0.0, 10.0))
        art = trace.gantt_ascii(width=20)
        assert "cpu0" in art and "gpu0" in art
        assert "K" in art  # task type letter

    def test_gantt_shows_wait_as_tilde(self):
        workers = make_workers()
        trace = make_trace(workers, (make_task(0), workers[0], 0.0, 5.0, 10.0))
        art = trace.gantt_ascii(width=20)
        assert "~" in art

    def test_gantt_no_workers(self):
        assert make_trace([]).gantt_ascii() == "(empty trace)"

    def test_gantt_zero_span_with_records(self):
        workers = make_workers()
        trace = make_trace(workers, (make_task(0), workers[0], 0.0, 0.0, 0.0))
        assert trace.gantt_ascii() == "(empty trace)"

    def test_gantt_narrow_width(self):
        """Footer must not raise for widths below the timestamp field."""
        workers = make_workers()
        trace = make_trace(workers, (make_task(0), workers[0], 0.0, 0.0, 10.0))
        for width in (1, 5, 11, 12):
            art = trace.gantt_ascii(width=width)
            assert "cpu0" in art

    def test_gantt_nonpositive_width_clamped(self):
        workers = make_workers()
        trace = make_trace(workers, (make_task(0), workers[0], 0.0, 0.0, 10.0))
        assert "K" in trace.gantt_ascii(width=0)

    def test_gantt_unnamed_type_uses_hash(self):
        workers = make_workers()
        trace = make_trace(workers, (Task(0, ""), workers[0], 0.0, 0.0, 10.0))
        assert "#" in trace.gantt_ascii(width=20)


class TestPracticalCriticalPathEdges:
    def test_empty_trace(self):
        assert make_trace(make_workers()).practical_critical_path([]) == []

    def test_single_record(self):
        workers = make_workers()
        a = make_task(0)
        trace = make_trace(workers, (a, workers[0], 0.0, 0.0, 5.0))
        chain = trace.practical_critical_path([a])
        assert [r.tid for r in chain] == [0]

    def test_prefers_latest_blocker(self):
        """The chain follows whichever candidate finished last: a DAG
        predecessor beating the worker's previous occupant."""
        workers = make_workers()
        dep = make_task(0)
        occupant = make_task(1)  # same worker, ends earlier than dep
        final = make_task(2, preds=[dep])
        trace = make_trace(
            workers,
            (occupant, workers[0], 0.0, 0.0, 3.0),
            (dep, workers[1], 0.0, 0.0, 8.0),
            (final, workers[0], 8.0, 8.0, 12.0),
        )
        chain = trace.practical_critical_path([dep, occupant, final])
        assert [r.tid for r in chain] == [0, 2]

    def test_unknown_tasks_fall_back_to_worker_chain(self):
        """Without DAG info the chain still follows worker occupancy."""
        workers = make_workers()
        a, b = make_task(0), make_task(1)
        trace = make_trace(
            workers,
            (a, workers[0], 0.0, 0.0, 5.0),
            (b, workers[0], 5.0, 5.0, 9.0),
        )
        chain = trace.practical_critical_path([])  # no task objects given
        assert [r.tid for r in chain] == [0, 1]
