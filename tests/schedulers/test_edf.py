"""Deadline-aware scheduling: EDF ordering, MultiPrio's deadline boost,
and the registry's deadline-aware entries."""

from __future__ import annotations

import pytest

from repro.api import SimConfig, SimSpec
from repro.platform.machines import cpu_only
from repro.runtime.perfmodel import AnalyticalPerfModel
from repro.runtime.stf import TaskFlow
from repro.runtime.task import AccessMode, Task
from repro.schedulers.edf import EDF
from repro.schedulers.multiprio import MultiPrio
from repro.schedulers.registry import make_scheduler, scheduler_names
from repro.runtime.engine import Simulator
from tests.conftest import trace_of


def deadline_bag(deadlines, implementations=("cpu",)):
    """Independent tasks, one per deadline (submission order = index)."""
    tf = TaskFlow("bag")
    for i, dl in enumerate(deadlines):
        h = tf.data(4096, label=f"d{i}")
        tf.submit(
            "gemm", [(h, AccessMode.W)], flops=5e7,
            implementations=implementations, deadline_us=dl,
        )
    return tf.program()


def run_on_one_cpu(program, scheduler):
    machine = cpu_only(n_cpus=1)
    sim = Simulator(
        machine.platform(), scheduler,
        AnalyticalPerfModel(machine.calibration()),
        seed=0, record_level="tasks",
    )
    res = sim.run(program)
    return [r.tid for r in sorted(trace_of(sim, res).task_records, key=lambda r: r.start)]


class TestEDF:
    def test_pops_in_deadline_order(self):
        # Submission order is the reverse of urgency.
        order = run_on_one_cpu(
            deadline_bag([5000.0, 4000.0, 3000.0, 2000.0, 1000.0]), EDF()
        )
        assert order == [4, 3, 2, 1, 0]

    def test_no_deadline_sorts_last_fifo(self):
        inf = float("inf")
        order = run_on_one_cpu(
            deadline_bag([inf, 2000.0, inf, 1000.0]), EDF()
        )
        assert order == [3, 1, 0, 2]

    def test_ties_break_by_submission_order(self):
        order = run_on_one_cpu(
            deadline_bag([1000.0, 1000.0, 1000.0]), EDF()
        )
        assert order == [0, 1, 2]

    def test_arch_mismatch_scans_past_urgent_task(self, hetero_machine):
        # The most urgent task is GPU-only; a CPU worker must skip it
        # and take the next feasible one without losing it.
        tf = TaskFlow("mixed")
        h0 = tf.data(4096, label="g")
        tf.submit("gemm", [(h0, AccessMode.W)], flops=5e7,
                  implementations=("cuda",), deadline_us=100.0)
        h1 = tf.data(4096, label="c")
        tf.submit("gemm", [(h1, AccessMode.W)], flops=5e7,
                  implementations=("cpu", "cuda"), deadline_us=5000.0)
        sim = Simulator(
            hetero_machine.platform(), EDF(),
            AnalyticalPerfModel(hetero_machine.calibration()),
            seed=0, record_level="tasks",
        )
        res = sim.run(tf.program())
        by_tid = {r.tid: r for r in trace_of(sim, res).task_records}
        assert len(by_tid) == 2  # both ran; nothing was dropped


class TestDeadlineBoost:
    def make(self, boost=1000.0):
        sched = MultiPrio(deadline_boost=boost)

        class Ctx:
            now = 0.0

        sched.ctx = Ctx()
        return sched

    def test_boost_gain_dominates_normal_gains(self):
        # Normal gains live in [0, 1]; a boosted gain must be >= 2 so a
        # slack-critical task preempts any gain-sorted peer.
        sched = self.make(boost=1000.0)
        tight = Task(0, "t", deadline_us=100.0)
        assert 2.0 <= sched._boost_gain(tight) <= 3.0
        overdue = Task(1, "t", deadline_us=1.0)
        sched.ctx.now = 500.0  # way past the deadline
        assert sched._boost_gain(overdue) == 3.0

    def test_slack_beyond_horizon_not_boosted(self):
        sched = self.make(boost=1000.0)
        relaxed = Task(0, "t", deadline_us=50_000.0)
        assert sched._boost_gain(relaxed) is None

    def test_no_deadline_never_boosted(self):
        sched = self.make(boost=1000.0)
        assert sched._boost_gain(Task(0, "t")) is None

    def test_disabled_by_default(self):
        assert MultiPrio().deadline_boost is None

    def test_tight_deadline_task_runs_earlier(self):
        # Ten loose tasks then one tight-deadline straggler submitted
        # last: with the boost it must not run last.
        deadlines = [50_000.0] * 10 + [400.0]
        plain = run_on_one_cpu(deadline_bag(deadlines), MultiPrio())
        boosted = run_on_one_cpu(
            deadline_bag(deadlines), MultiPrio(deadline_boost=1000.0)
        )
        assert plain.index(10) > boosted.index(10)
        assert boosted.index(10) == 0


class TestRegistry:
    def test_deadline_schedulers_registered(self):
        names = scheduler_names()
        assert "edf" in names
        assert "multiprio-deadline" in names

    def test_multiprio_deadline_has_boost(self):
        sched = make_scheduler("multiprio-deadline")
        assert isinstance(sched, MultiPrio)
        assert sched.deadline_boost is not None

    def test_facade_accepts_deadline_boost_param(self):
        res = SimSpec(
            "small-hetero", "multiprio",
            config=SimConfig(sched_params={"deadline_boost": 2000.0}),
        ).run(deadline_bag([1000.0] * 4, implementations=("cpu", "cuda")))
        assert res.makespan > 0
