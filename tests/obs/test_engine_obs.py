"""Engine + observability integration: zero-cost guarantee, event
consistency, decision provenance, fault events."""

import pytest

from repro.apps.dense import cholesky_program
from repro.schedulers.multiprio import MultiPrio
from repro.obs.events import (
    DecisionEvent,
    RecordLevel,
    TaskEnd,
    TaskFault,
    TaskPop,
    TaskReady,
    TaskRetryScheduled,
    TaskStart,
    TaskSubmit,
    TransferEvent,
    WorkerDeath,
)
from repro.api import SimSpec
from repro.obs.export import trace_from_events
from repro.platform.machines import small_hetero
from repro.runtime.engine import Simulator
from repro.runtime.faults import FaultModel
from repro.runtime.perfmodel import AnalyticalPerfModel
from repro.runtime.trace import worker_idle_fraction
from repro.schedulers.registry import make_scheduler


def run(scheduler_name="multiprio", *, level=RecordLevel.OFF, sched=None,
        n_tiles=6, fault_model=None):
    machine = small_hetero(n_cpus=4, n_gpus=1, gpu_streams=1)
    sim = Simulator(
        machine.platform(),
        sched if sched is not None else make_scheduler(scheduler_name),
        AnalyticalPerfModel(machine.calibration()),
        seed=0,
        record_level=level,
        fault_model=fault_model,
    )
    return sim, sim.run(cholesky_program(n_tiles, 512))


def probe_run(kills):
    """Cholesky 8x384 under multiprio on small-hetero, optionally with
    fail-stop worker kills ``{wid: time_us}``."""
    sim = SimSpec(
        "small-hetero", "multiprio", record_level="tasks",
        faults=FaultModel(worker_kills=kills) if kills else None,
    ).simulator()
    return sim, sim.run(cholesky_program(8, 384))


class TestZeroCost:
    def test_off_has_no_observability(self):
        sim, res = run(level=RecordLevel.OFF)
        assert sim.obs is None
        assert res.events is None and res.metrics is None

    def test_results_identical_across_levels(self):
        baseline = None
        for level in ("off", "tasks", "decisions"):
            _, res = run(level=level)
            key = (res.makespan, res.bytes_transferred, res.n_tasks)
            if baseline is None:
                baseline = key
            assert key == baseline, f"level {level} perturbed the simulation"

    def test_level_parse_on_simulator(self):
        machine = small_hetero(n_cpus=2, n_gpus=1)
        sim = Simulator(machine.platform(), make_scheduler("eager"),
                        AnalyticalPerfModel(machine.calibration()),
                        record_level="tasks")
        assert sim.record_level is RecordLevel.TASKS


class TestEventStream:
    def test_lifecycle_counts(self):
        _, res = run(level="tasks")
        by_type = {}
        for ev in res.events:
            by_type.setdefault(type(ev), []).append(ev)
        n = res.n_tasks
        assert len(by_type[TaskSubmit]) == n
        assert len(by_type[TaskReady]) == n
        assert len(by_type[TaskPop]) == n
        assert len(by_type[TaskStart]) == n
        assert len(by_type[TaskEnd]) == n
        assert DecisionEvent not in by_type  # tasks level only

    def test_times_monotonic(self):
        _, res = run(level="tasks")
        ts = [ev.t for ev in res.events]
        assert ts == sorted(ts)

    def test_transfers_have_real_sources(self):
        _, res = run(level="tasks")
        transfers = [ev for ev in res.events if isinstance(ev, TransferEvent)]
        assert transfers
        for ev in transfers:
            assert ev.src >= 0 and ev.dst >= 0 and ev.src != ev.dst
            assert ev.end >= ev.start
            assert ev.nbytes > 0

    def test_trace_records_have_real_sources(self):
        """Transfers in the event-built trace name both real endpoints."""
        sim, res = run(level="tasks")
        trace = trace_from_events(res.events, sim.platform.workers)
        assert trace.transfer_records
        assert all(
            r.src >= 0 and r.dst >= 0 and r.src != r.dst
            for r in trace.transfer_records
        )

    def test_event_trace_matches_engine_trace(self):
        """The event-built trace is the engine's own per-task record."""
        program = cholesky_program(6, 512)
        machine = small_hetero(n_cpus=4, n_gpus=1, gpu_streams=1)
        sim = Simulator(
            machine.platform(), make_scheduler("multiprio"),
            AnalyticalPerfModel(machine.calibration()), seed=0,
            record_level="tasks",
        )
        res = sim.run(program)
        trace = trace_from_events(res.events, sim.platform.workers)
        assert trace.makespan() == res.makespan
        assert len(trace.task_records) == len(program.tasks)
        for rec in trace.task_records:
            assert (rec.worker, rec.pop_time, rec.start, rec.end) == (
                program.tasks[rec.tid].sched["_record"])
            assert rec.node == sim.platform.workers[rec.worker].memory_node

    def test_idle_fractions_match_engine(self):
        """Per-worker trace idle fractions average to the engine's, bit
        for bit."""
        sim, res = probe_run({})
        trace = trace_from_events(res.events, sim.platform.workers)
        for arch, frac in res.idle_frac_by_arch.items():
            fracs = [
                trace.idle_fraction(w.wid)
                for w in sim.platform.workers_of_arch(arch)
            ]
            assert (sum(fracs) / len(fracs) if fracs else 0.0) == frac

    def test_dead_worker_idle_is_judged_over_its_lifetime(self):
        sim, res = probe_run({1: 8000.0})
        trace = trace_from_events(res.events, sim.platform.workers)
        assert trace.death_us == res.death_us_by_worker == {1: 8000.0}
        occupied = trace.busy_time(1) + trace.wait_time(1)
        assert occupied > 0
        assert trace.idle_fraction(1) == worker_idle_fraction(
            occupied, trace.makespan(), 8000.0
        )
        assert trace.idle_fraction(1) < worker_idle_fraction(
            occupied, trace.makespan()
        )

    @pytest.mark.parametrize("kills", [{}, {1: 3000.0}], ids=["no-fault", "kill"])
    def test_metrics_idle_fractions_are_the_engines(self, kills):
        """Regression: the metrics snapshot judged a dead worker against
        the whole makespan (cpu 0.8959 vs the engine's 0.8533 with wid 1
        killed) and differed in the last bits without faults."""
        _, res = probe_run(kills)
        for arch, frac in res.idle_frac_by_arch.items():
            assert res.metrics.derived[f"idle_frac.{arch}"] == frac

    @pytest.mark.parametrize("machine", ["small-hetero", "intel-v100"])
    def test_event_trace_covers_every_task_and_byte(self, machine):
        program = cholesky_program(8, 960)
        sim = SimSpec(machine, "multiprio", record_level="tasks").simulator()
        res = sim.run(program)
        trace = trace_from_events(res.events, sim.platform.workers)
        assert sorted(r.tid for r in trace.task_records) == [
            t.tid for t in program.tasks
        ]
        assert sum(r.nbytes for r in trace.transfer_records) == res.bytes_transferred

    def test_metrics_snapshot(self):
        _, res = run(level="tasks")
        flat = res.metrics.as_dict()
        assert flat["tasks_completed"] == res.n_tasks
        assert flat["makespan_us"] == res.makespan
        assert any(k.startswith("link_bytes.") for k in flat)
        assert any(k.startswith("idle_frac.") for k in flat)


class TestDecisionProvenance:
    def test_multiprio_every_pop_has_a_decision(self):
        sched = MultiPrio()
        _, res = run(sched=sched, level="decisions")
        decisions = [ev for ev in res.events if isinstance(ev, DecisionEvent)]
        pops = [d for d in decisions if d.action == "pop"]
        assert len(pops) == res.n_tasks
        for d in pops:
            assert d.scheduler == "multiprio"
            assert d.pop_condition is True
            assert d.gain is not None and d.nod is not None
            assert d.ls_sdh2 is not None and d.delta is not None
            assert d.tid in d.candidates
            assert d.wid >= 0 and d.node >= 0

    def test_multiprio_rejections_match_stats(self):
        sched = MultiPrio()
        _, res = run(sched=sched, level="decisions")
        rejections = [ev for ev in res.events
                      if isinstance(ev, DecisionEvent)
                      and ev.action in ("skip", "evict")]
        stats = sched.stats()
        assert len(rejections) == stats["skips"] + stats["evictions"]
        for d in rejections:
            assert d.pop_condition is False
            assert d.delta is not None

    def test_evict_on_reject_labels_evictions(self):
        sched = MultiPrio(evict_on_reject=True)
        _, res = run(sched=sched, level="decisions")
        actions = {ev.action for ev in res.events
                   if isinstance(ev, DecisionEvent)}
        assert "skip" not in actions  # literal eviction mode

    def test_heap_depth_gauges_sampled(self):
        sim, res = run(level="decisions")
        gauges = {k for k in res.metrics.gauges if k.startswith("heap_depth.")}
        assert gauges
        for name in gauges:
            assert res.metrics.gauges[name]["n"] > 0

    def test_dmdas_decisions(self):
        _, res = run("dmdas", level="decisions")
        pops = [ev for ev in res.events
                if isinstance(ev, DecisionEvent) and ev.action == "pop"]
        assert len(pops) == res.n_tasks
        assert all(d.scheduler == "dmdas" for d in pops)
        assert all(d.locality_bytes is not None for d in pops)
        assert all(d.reason.startswith("priority:") for d in pops)

    def test_heteroprio_decisions(self):
        _, res = run("heteroprio", level="decisions")
        pops = [ev for ev in res.events
                if isinstance(ev, DecisionEvent) and ev.action == "pop"]
        assert len(pops) == res.n_tasks
        assert all(d.reason.startswith("bucket:") for d in pops)


class TestFaultEvents:
    def test_transient_faults_emit_events(self):
        model = FaultModel(task_failure_rate=0.3, max_retries=50, seed=1)
        _, res = run(level="tasks", fault_model=model)
        faults = [ev for ev in res.events if isinstance(ev, TaskFault)]
        retries = [ev for ev in res.events
                   if isinstance(ev, TaskRetryScheduled)]
        assert faults and retries
        assert res.faults.task_failures == len(faults)
        for ev in faults:
            assert ev.wasted_us >= 0 and ev.attempt >= 1

    def test_fault_results_identical_with_obs(self):
        spans = set()
        for level in ("off", "tasks"):
            model = FaultModel(task_failure_rate=0.3, max_retries=50, seed=1)
            _, res = run(level=level, fault_model=model)
            spans.add(res.makespan)
        assert len(spans) == 1

    def test_worker_death_event(self):
        model = FaultModel(worker_kills=[(0, 100.0)], seed=0)
        _, res = run(level="tasks", fault_model=model)
        deaths = [ev for ev in res.events if isinstance(ev, WorkerDeath)]
        assert len(deaths) == 1
        assert deaths[0].wid == 0 and deaths[0].t == pytest.approx(100.0)
