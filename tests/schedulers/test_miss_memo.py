"""Exactness of MultiPrio's negative-pop memo.

The memo caches an empty pop per ``(memory node, arch)`` until the next
change to the heaps, ``best_remaining_work`` or the worker counts. The
reference here is a test-only subclass whose ``pop`` clears the memo
before delegating, so every pop scans as if the memo did not exist. Each
configuration runs under both and must agree on every task's placement
and timing, the makespan, ``stats()`` and the task-level event stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import pytest

from repro.api import SimSpec
from repro.apps.dense import cholesky_program
from repro.control.plane import default_overload_config
from repro.core.heap import RelaxedTaskHeap, TaskHeap
from repro.experiments.overload import (
    estimate_job_cost_us,
    overload_workload,
    sustainable_rate_jobs_per_s,
)
from repro.extensions.energy import EnergyAwareMultiPrio
from repro.obs.export import trace_from_events
from repro.platform import MACHINES
from repro.runtime.faults import FaultModel
from repro.runtime.overhead import SchedOverheadModel
from repro.runtime.engine import SchedContext
from repro.runtime.perfmodel import AnalyticalPerfModel, HistoryPerfModel
from repro.runtime.stf import TaskFlow
from repro.runtime.task import AccessMode, TaskState
from repro.schedulers.multiprio import MultiPrio


class _NoMemo:
    """Reference: forget every cached miss before each pop."""

    def pop(self, worker):
        self._miss_memo.clear()
        return super().pop(worker)


class RefMultiPrio(_NoMemo, MultiPrio):
    pass


class RefEnergyAwareMultiPrio(_NoMemo, EnergyAwareMultiPrio):
    pass


@pytest.fixture
def window_calls(monkeypatch):
    """Count candidate-window scans on both heap kinds."""
    calls = {"n": 0}
    for cls in (TaskHeap, RelaxedTaskHeap):
        orig = cls.top_candidates

        def counted(self, n, _orig=orig):
            calls["n"] += 1
            return _orig(self, n)

        monkeypatch.setattr(cls, "top_candidates", counted)
    return calls


@dataclass
class Outcome:
    res: object
    #: Every task's (tid, worker, start, end), sorted by tid.
    records: tuple
    stats: dict
    events: tuple
    #: Candidate-window scans the run made.
    scans: int
    #: The miss memo as the run left it.
    memo: dict


def run_both(window_calls, make_sched, run) -> tuple[Outcome, Outcome]:
    """Run ``run(scheduler)`` with the memo and with the reference."""
    out = []
    for ref in (False, True):
        sched = make_sched(ref)
        window_calls["n"] = 0
        res = run(sched)
        records = tuple(
            sorted(
                (r.tid, r.worker, r.start, r.end)
                for r in trace_from_events(res.events, ()).task_records
            )
        )
        out.append(
            Outcome(
                res, records, sched.stats(), tuple(map(repr, res.events)),
                window_calls["n"], dict(sched._miss_memo),
            )
        )
    return out[0], out[1]


def mp(**kw):
    """Scheduler factory: MultiPrio(**kw), or its memo-less reference."""
    return lambda ref: (RefMultiPrio if ref else MultiPrio)(**kw)


def graph_run(machine, program_factory, **knobs):
    """A task-level-recorded run of one fresh program."""

    def run(sched):
        spec = SimSpec(
            machine, sched, record_level="tasks", **knobs
        )
        return spec.run(program_factory())

    return run


def overloaded_stream_run():
    """A 4x-overloaded tenant stream whose control plane sheds and evicts."""
    machine = "small-hetero"
    job_cost = estimate_job_cost_us(machine)
    rate = 4.0 * sustainable_rate_jobs_per_s(machine, job_cost)
    stream = overload_workload(rate_jobs_per_s=rate, n_tenants=6, n_jobs=24, seed=3)
    n_workers = len(MACHINES[machine]().platform().workers)
    control = default_overload_config(
        tenants=stream.tenants,
        sustainable_work_per_s=float(n_workers),
        job_cost_us=job_cost,
        max_inflight_jobs=2.0 * n_workers,
    )

    def run(sched):
        spec = SimSpec(
            machine, sched, control=control, isolated_baseline=False,
            record_level="tasks",
        )
        sres = run.last = spec.run_stream(stream)
        return sres.sim

    return run


def assert_exact(memo: Outcome, ref: Outcome) -> None:
    assert memo.records == ref.records, "per-task (worker, start, end) differ"
    assert memo.res.makespan == ref.res.makespan
    assert memo.stats == ref.stats
    assert memo.events == ref.events


def assert_memo_hits(memo: Outcome, ref: Outcome) -> None:
    """The memo answered repeated misses: fewer window scans."""
    assert memo.stats["skips"] > 0
    assert memo.scans < ref.scans


class TestMemoIsExact:
    def test_cholesky_intel_v100(self, window_calls):
        memo, ref = run_both(
            window_calls, mp(), graph_run("intel-v100", lambda: cholesky_program(12, 960))
        )
        assert_exact(memo, ref)
        assert_memo_hits(memo, ref)

    def test_deadline_stream_with_shedding_and_eviction(self, window_calls):
        run = overloaded_stream_run()
        memo, ref = run_both(window_calls, mp(deadline_boost=1000.0), run)
        assert_exact(memo, ref)
        assert_memo_hits(memo, ref)
        ledger = run.last.control
        assert ledger.n_rejected > 0 and ledger.n_evicted > 0
        assert memo.stats["retractions"] > 0

    def test_task_faults_and_worker_death(self, window_calls):
        faults = FaultModel(
            task_failure_rate=0.05, worker_kills={4: 2_000.0}, max_retries=50, seed=2
        )
        memo, ref = run_both(
            window_calls,
            mp(),
            graph_run(
                "small-hetero", lambda: cholesky_program(8, 512), faults=faults
            ),
        )
        assert_exact(memo, ref)
        assert_memo_hits(memo, ref)
        assert memo.stats["task_failures"] > 0
        assert memo.res.faults.worker_failures == 1

    def test_batched_push(self, window_calls):
        memo, ref = run_both(
            window_calls,
            mp(),
            graph_run(
                "small-hetero", lambda: cholesky_program(10, 512), batch_step=50.0
            ),
        )
        assert_exact(memo, ref)
        assert_memo_hits(memo, ref)

    @pytest.mark.parametrize("objective", ["energy", "edp"])
    def test_energy_variants(self, window_calls, objective):
        def make(ref):
            cls = RefEnergyAwareMultiPrio if ref else EnergyAwareMultiPrio
            return cls(objective=objective)

        memo, ref = run_both(
            window_calls, make, graph_run("small-hetero", lambda: cholesky_program(10, 512))
        )
        assert_exact(memo, ref)
        assert_memo_hits(memo, ref)

    def test_charged_overheads(self, window_calls):
        overhead = SchedOverheadModel(push_us=2.0, pop_us=5.0, flush_us=1.0)
        memo, ref = run_both(
            window_calls,
            mp(),
            graph_run(
                "small-hetero", lambda: cholesky_program(10, 512), overhead=overhead
            ),
        )
        assert_exact(memo, ref)
        assert_memo_hits(memo, ref)


class TestBypass:
    """Each bypass case leaves the memo empty and scans like before."""

    @pytest.mark.parametrize(
        "kw", [{"relaxed": 4}, {"evict_on_reject": True}], ids=["relaxed", "evicting"]
    )
    def test_scheduler_knobs(self, window_calls, kw):
        memo, ref = run_both(
            window_calls, mp(**kw), graph_run("small-hetero", lambda: cholesky_program(8, 512))
        )
        assert_exact(memo, ref)
        assert memo.scans == ref.scans
        assert memo.memo == {}

    def test_decisions_level(self, window_calls):
        def run(sched):
            spec = SimSpec(
                "small-hetero", sched, record_level="decisions"
            )
            return spec.run(cholesky_program(8, 512))

        memo, ref = run_both(window_calls, mp(), run)
        assert_exact(memo, ref)
        assert memo.scans == ref.scans
        assert memo.memo == {}

    def test_unstable_perf_model(self, window_calls):
        calib = MACHINES["small-hetero"]().calibration()

        def run(sched):
            # A fresh history per run: the model learns as tasks finish.
            history = HistoryPerfModel(AnalyticalPerfModel(calib))
            spec = SimSpec(
                "small-hetero", sched, perfmodel=history,
                record_level="tasks",
            )
            return spec.run(cholesky_program(8, 512))

        memo, ref = run_both(window_calls, mp(), run)
        assert_exact(memo, ref)
        assert memo.scans == ref.scans
        assert memo.memo == {}


class TestInvalidation:
    """Inputs that change without a push or a take still clear the memo."""

    @staticmethod
    def cpu_miss(machine):
        """A scheduler whose CPU pop just missed on backlog alone.

        Pushes ``k`` GPU-best tasks with ``k·δ_gpu / 2 <= δ_cpu < k·δ_gpu``:
        the two GPU streams' drain time is too short to admit a CPU, but
        one stream's would be long enough.
        """
        ctx = SchedContext(machine.platform(), AnalyticalPerfModel(machine.calibration()))
        sched = MultiPrio()
        sched.setup(ctx)
        flow = TaskFlow()

        def task():
            t = flow.submit("gemm", [(flow.data(1024), AccessMode.RW)], flops=1e9,
                            implementations=("cpu", "cuda"))
            t.state = TaskState.READY
            return t

        probe = task()
        gpu, cpu = ctx.estimate(probe, "cuda"), ctx.estimate(probe, "cpu")
        k = math.floor(2 * cpu / gpu)
        assert cpu / gpu < k
        for t in [probe] + [task() for _ in range(k - 1)]:
            sched.push(t)
        cpu_worker = ctx.workers_of_arch("cpu")[0]
        assert sched.pop(cpu_worker) is None
        assert sched._miss_memo
        return sched, ctx, cpu_worker

    def test_worker_death_clears_memo(self, hetero_machine):
        sched, ctx, cpu_worker = self.cpu_miss(hetero_machine)
        stream = ctx.workers_of_arch("cuda")[1]
        ctx.mark_worker_dead(stream)
        assert sched.on_worker_failed(stream) == []  # the other stream serves on
        assert sched._miss_memo == {}
        # One stream now drains the backlog twice as slowly: admitted.
        assert sched.pop(cpu_worker) is not None

    def test_stale_discard_clears_memo(self, hetero_machine):
        sched, _, cpu_worker = self.cpu_miss(hetero_machine)
        heap = sched.heaps[cpu_worker.memory_node]
        # A tombstone outside the window, dropped by a full-heap scan
        # (force_pop's) that takes nothing: the heap is restructured.
        max(heap, key=lambda e: e.pos).dead = True
        assert heap.purge_stale() == 1
        assert sched._miss_memo == {}
