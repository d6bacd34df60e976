"""The runtime invariant validator: clean runs pass, corruption is caught."""

from __future__ import annotations

import pytest

from repro.apps.dense import cholesky_program
from repro.apps.fmm import fmm_program
from repro.check.differential import fingerprint
from repro.schedulers.multiprio import MultiPrio
from repro.obs.events import InvariantViolation
from repro.platform.machines import small_hetero
from repro.runtime.engine import SchedContext, Simulator
from repro.runtime.faults import FaultModel
from repro.runtime.perfmodel import AnalyticalPerfModel
from repro.runtime.task import TaskState
from repro.schedulers.eager import Eager
from repro.schedulers.registry import make_scheduler
from repro.utils.validation import InvariantError
from tests.conftest import make_fork_join_program


def build(scheduler="eager", *, machine=None, sched=None, **kw):
    machine = machine or small_hetero(n_cpus=4, n_gpus=1)
    return Simulator(
        machine.platform(),
        sched if sched is not None else make_scheduler(scheduler),
        AnalyticalPerfModel(machine.calibration()),
        seed=0,
        record_trace=kw.pop("record_trace", False),
        check_invariants=kw.pop("check_invariants", True),
        **kw,
    )


class Saboteur(Eager):
    """Delegates to Eager but corrupts runtime state after N pops."""

    name = "saboteur"

    def __init__(self, after: int, corrupt) -> None:
        super().__init__()
        self._after = after
        self._corrupt = corrupt
        self._pops = 0
        self.fired = False

    def pop(self, worker):
        task = super().pop(worker)
        if task is not None:
            self._pops += 1
            if self._pops == self._after and not self.fired:
                self.fired = True
                self._corrupt()
        return task


class TestCleanRunsPass:
    @pytest.mark.parametrize("name", ["eager", "multiprio", "dmdas", "heteroprio"])
    def test_schedulers_validate_clean(self, name):
        res = build(name).run(cholesky_program(6, 384))
        assert res.makespan > 0

    def test_commute_heavy_fmm_validates(self):
        res = build("multiprio").run(fmm_program(800, height=3, seed=0))
        assert res.makespan > 0

    def test_transient_faults_validate(self):
        sim = build(
            "multiprio",
            fault_model=FaultModel(task_failure_rate=0.3, max_retries=100, seed=1),
        )
        res = sim.run(cholesky_program(5, 384))
        assert res.faults is not None and res.faults.task_failures > 0

    def test_worker_death_validates(self):
        sim = build(
            "multiprio",
            fault_model=FaultModel(worker_kills=[(0, 200.0)], seed=0),
        )
        res = sim.run(cholesky_program(5, 384))
        assert res.faults is not None and res.faults.worker_failures == 1

    def test_submission_window_validates(self):
        res = build("multiprio", submission_window=4).run(cholesky_program(5, 384))
        assert res.makespan > 0

    def test_checker_does_not_perturb_the_schedule(self):
        program = cholesky_program(5, 384)
        checked = build("multiprio", record_trace=True).run(program)
        plain = build(
            "multiprio", record_trace=True, check_invariants=False
        ).run(program)
        assert fingerprint(checked) == fingerprint(plain)


class TestCorruptionCaught:
    def run_sabotaged(self, program, after, corrupt, **kw):
        machine = small_hetero(n_cpus=4, n_gpus=1)
        sched = Saboteur(after, corrupt)
        sim = build(machine=machine, sched=sched, **kw)
        return sim, sim.run(program)

    def test_msi_unknown_node(self):
        program = make_fork_join_program(width=8)
        with pytest.raises(InvariantError, match=r"\[msi\].*unknown nodes"):
            self.run_sabotaged(
                program, 3, lambda: program.handles[0].valid_nodes.add(999)
            )

    def test_msi_spurious_pin(self):
        program = make_fork_join_program(width=8)
        with pytest.raises(InvariantError, match=r"\[msi\].*pin count"):
            self.run_sabotaged(
                program, 3,
                lambda: program.handles[0]._pins.__setitem__(0, 5),
            )

    def test_link_clock_moved_backward(self):
        program = cholesky_program(4, 384)
        machine = small_hetero(n_cpus=4, n_gpus=1)
        platform = machine.platform()
        link = platform.transfers.links()[0]

        def corrupt():
            link.busy_until -= 25.0

        sched = Saboteur(5, corrupt)
        sim = Simulator(
            platform, sched, AnalyticalPerfModel(machine.calibration()),
            seed=0, record_trace=False, check_invariants=True,
        )
        with pytest.raises(InvariantError, match=r"\[link\]"):
            sim.run(program)
        assert sched.fired

    def test_conservation_phantom_running_task(self):
        program = make_fork_join_program(width=8)

        def corrupt():
            # The sink still waits on predecessors, so no pop can reach
            # it before the checker does: marking it RUNNING leaves a
            # phantom running task no worker holds.
            sink = program.tasks[-1]
            assert sink.n_unfinished_preds > 0
            sink.state = TaskState.RUNNING

        with pytest.raises(InvariantError, match=r"\[conservation\].*no worker"):
            self.run_sabotaged(program, 2, corrupt)

    def test_task_state_resurrected_done_task(self):
        program = make_fork_join_program(width=8)

        def corrupt():
            done = next(t for t in program.tasks if t.state is TaskState.DONE)
            done.state = TaskState.READY

        with pytest.raises(InvariantError, match=r"\[task_state\]"):
            self.run_sabotaged(program, 4, corrupt)

    def test_scheduler_self_check_feeds_in(self):
        class Paranoid(Eager):
            name = "paranoid"

            def check(self):
                return ["boom"]

        machine = small_hetero(n_cpus=2, n_gpus=1)
        sim = build(machine=machine, sched=Paranoid())
        with pytest.raises(InvariantError, match=r"\[scheduler\] boom"):
            sim.run(make_fork_join_program(width=4))

    def test_violations_emitted_as_events(self):
        program = make_fork_join_program(width=8)
        machine = small_hetero(n_cpus=4, n_gpus=1)
        sched = Saboteur(
            3, lambda: program.handles[0].valid_nodes.add(999)
        )
        sim = Simulator(
            machine.platform(), sched,
            AnalyticalPerfModel(machine.calibration()),
            seed=0, record_trace=False, record_level="tasks",
            check_invariants=True,
        )
        with pytest.raises(InvariantError):
            sim.run(program)
        assert sim.obs is not None
        violations = [
            ev for ev in sim.obs.events if isinstance(ev, InvariantViolation)
        ]
        assert violations and violations[-1].check == "msi"


class TestRtViolations:
    """The ``rt`` family: overhead conservation, resource exclusion and
    the merged stream's slack bookkeeping."""

    def checker_with(self, *, overhead=None, resource=None):
        # White-box: bind only the rt-family state the check reads.
        from repro.check.invariants import InvariantChecker

        checker = InvariantChecker()
        checker.overhead_ledger = overhead
        checker.resource_ledger = resource
        checker._rt_grant_idx = 0
        checker._rt_res_end = {}
        checker._rt_sched_floor = 0.0
        return checker

    def test_overhead_charge_leak_caught(self):
        from repro.runtime.overhead import OverheadLedger, SchedOverheadModel

        ledger = OverheadLedger(SchedOverheadModel(push_us=2.0))
        ledger.push(0.0)
        ledger.charged_us += 5.0  # corrupt: charge without a decision
        out = []
        self.checker_with(overhead=ledger)._check_rt(out)
        assert any("overhead charge leaked" in d for _, d in out)
        assert all(f == "rt" for f, _ in out)

    def test_sched_clock_retreat_caught(self):
        from repro.runtime.overhead import OverheadLedger, SchedOverheadModel

        ledger = OverheadLedger(SchedOverheadModel(push_us=2.0))
        ledger.push(10.0)
        checker = self.checker_with(overhead=ledger)
        out = []
        checker._check_rt(out)
        assert out == []
        ledger.sched_free -= 5.0  # corrupt: the virtual core un-worked
        ledger.charged_us -= 5.0  # keep conservation consistent
        checker._check_rt(out)
        assert any("moved backward" in d for _, d in out)

    def test_resource_double_hold_caught(self):
        from repro.runtime.resources import ResourceLedger, ResourceProtocol
        from repro.runtime.task import Task

        ledger = ResourceLedger(ResourceProtocol(), [])
        ledger.book(Task(0, "t", resources=("r",)), 0.0, 50.0)
        ledger.book(Task(1, "t", resources=("r",)), 10.0, 60.0)  # overlap
        out = []
        self.checker_with(resource=ledger)._check_rt(out)
        assert any("double-held" in d for _, d in out)

    def test_resource_negative_grant_caught(self):
        from repro.runtime.resources import ResourceLedger, ResourceProtocol
        from repro.runtime.task import Task

        ledger = ResourceLedger(ResourceProtocol(), [])
        ledger.book(Task(0, "t", resources=("r",)), 50.0, 10.0)
        out = []
        self.checker_with(resource=ledger)._check_rt(out)
        assert any("ends before it starts" in d for _, d in out)

    def test_grant_audit_is_incremental(self):
        from repro.runtime.resources import ResourceLedger, ResourceProtocol
        from repro.runtime.task import Task

        ledger = ResourceLedger(ResourceProtocol(), [])
        checker = self.checker_with(resource=ledger)
        ledger.book(Task(0, "t", resources=("r",)), 0.0, 50.0)
        out = []
        checker._check_rt(out)
        assert out == [] and checker._rt_grant_idx == 1
        ledger.book(Task(1, "t", resources=("r",)), 60.0, 80.0)
        checker._check_rt(out)
        assert out == [] and checker._rt_grant_idx == 2

    def test_merged_deadline_outside_job_window_caught(self):
        from repro.workload.merge import merge_stream
        from repro.workload.stream import trace_stream

        stream = trace_stream(
            [(0.0, make_fork_join_program(width=4), "t", "burstable", 100.0)]
        )
        merged = merge_stream(stream)
        # Corrupt the merge's min(job, own) rule: one task claims more
        # slack than its job window allows.
        merged.tasks[1].deadline_us = 10_000.0
        with pytest.raises(InvariantError, match=r"\[rt\].*outside job"):
            build("multiprio").run(merged)


class TestActivation:
    def test_env_var_enables(self, monkeypatch, hetero_machine):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        sim = Simulator(
            hetero_machine.platform(), Eager(),
            AnalyticalPerfModel(hetero_machine.calibration()),
        )
        assert sim.check_invariants is True

    def test_env_var_zero_and_unset_disable(self, monkeypatch, hetero_machine):
        def make():
            return Simulator(
                hetero_machine.platform(), Eager(),
                AnalyticalPerfModel(hetero_machine.calibration()),
            )

        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        assert make().check_invariants is False
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "0")
        assert make().check_invariants is False

    def test_explicit_flag_beats_env(self, monkeypatch, hetero_machine):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        sim = Simulator(
            hetero_machine.platform(), Eager(),
            AnalyticalPerfModel(hetero_machine.calibration()),
            check_invariants=False,
        )
        assert sim.check_invariants is False

    def test_simulate_facade_accepts_flag(self):
        from repro.api import SimSpec

        res = SimSpec(
            "small-hetero", "multiprio", check_invariants=True
        ).run(cholesky_program(4, 384))
        assert res.makespan > 0


class TestWindowFamily:
    """Unit-drive _check_window: the engine only ever feeds it healthy
    counters, so corruption has to be injected directly."""

    def make_checker(self, n_tasks, *, window=None, releases=None):
        from types import SimpleNamespace

        from repro.check.invariants import InvariantChecker

        checker = InvariantChecker()
        checker.window = window
        checker.releases = releases
        checker.program = SimpleNamespace(tasks=[None] * n_tasks)
        return checker

    def test_in_flight_over_window_flagged(self):
        checker = self.make_checker(10, window=2)
        out: list = []
        checker._check_window(revealed=5, n_done=1, prev_now=0.0, out=out)
        assert any("exceed the submission window" in d for _, d in out)

    def test_stalled_reveal_without_excuse_flagged(self):
        checker = self.make_checker(10, window=4)
        out: list = []
        checker._check_window(revealed=3, n_done=2, prev_now=0.0, out=out)
        assert any("reveal loop leaked" in d for _, d in out)

    def test_full_window_excuses_the_stall(self):
        checker = self.make_checker(10, window=2)
        out: list = []
        checker._check_window(revealed=4, n_done=2, prev_now=0.0, out=out)
        assert out == []

    def test_future_release_excuses_the_stall(self):
        releases = tuple([0.0] * 3 + [500.0] * 7)
        checker = self.make_checker(10, releases=releases)
        out: list = []
        checker._check_window(revealed=3, n_done=1, prev_now=100.0, out=out)
        assert out == []

    def test_past_release_does_not_excuse(self):
        releases = tuple([0.0] * 3 + [500.0] * 7)
        checker = self.make_checker(10, releases=releases)
        out: list = []
        checker._check_window(revealed=3, n_done=1, prev_now=600.0, out=out)
        assert any("reveal loop leaked" in d for _, d in out)

    def test_fully_revealed_is_always_clean(self):
        checker = self.make_checker(4, window=1)
        out: list = []
        checker._check_window(revealed=4, n_done=3, prev_now=0.0, out=out)
        assert out == []


class TestMultiPrioSelfCheck:
    def make_loaded(self):
        machine = small_hetero(n_cpus=2, n_gpus=1)
        ctx = SchedContext(
            machine.platform(), AnalyticalPerfModel(machine.calibration())
        )
        sched = MultiPrio()
        sched.setup(ctx)
        program = make_fork_join_program(width=6)
        for task in program.source_tasks():
            task.state = TaskState.READY
            sched.push(task)
        return sched, program

    def test_clean_state_reports_nothing(self):
        sched, _ = self.make_loaded()
        assert sched.check() == []

    def test_counter_drift_detected(self):
        sched, _ = self.make_loaded()
        node = next(iter(sched.ready_tasks_count))
        sched.ready_tasks_count[node] += 1
        assert any("ready_tasks_count" in p for p in sched.check())

    def test_brw_drift_detected(self):
        sched, program = self.make_loaded()
        task = next(iter(program.source_tasks()))
        task.sched["mp_best_delta"] = task.sched.get("mp_best_delta", 0.0) + 1e6
        assert any("best_remaining_work" in p for p in sched.check())
