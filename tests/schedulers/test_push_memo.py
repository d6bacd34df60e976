"""Exactness of MultiPrio's push-time class memo.

Under a stable perf model, the arch-dependent half of Alg. 1 (δ per
arch, best arch, Eq. 1 gains) is scored once per kernel class
``(type_name, flops, implementations)`` and reused; the node lanes are
shared per ``implementations``. The reference here is a test-only
subclass that forgets every scored class and every lane list before each
task is inserted, so every push — sequential or batched — scores from
scratch as if neither memo existed. Each configuration runs under both
and must agree on every task's placement and timing, the makespan,
``stats()``, the task-level event stream, the final
``best_remaining_work`` and the final ``hd`` maxima.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.api import SimSpec
from repro.apps.dense import cholesky_program
from repro.apps.fmm import fmm_program
from repro.core.gain import gain_scores
from repro.extensions.energy import EnergyAwareMultiPrio
from repro.obs.export import trace_from_events
from repro.platform import MACHINES
from repro.runtime.engine import SchedContext
from repro.runtime.faults import FaultModel
from repro.runtime.perfmodel import AnalyticalPerfModel, HistoryPerfModel
from repro.runtime.stf import TaskFlow
from repro.runtime.task import AccessMode, TaskState
from repro.schedulers.multiprio import MultiPrio
from tests.schedulers.test_miss_memo import graph_run, overloaded_stream_run


class _NoClassMemo:
    """Reference: forget every scored kernel class and lane list before
    each insert."""

    def _insert(self, task):
        self._class_memo.clear()
        self._lanes.clear()
        return super()._insert(task)


class RefMultiPrio(_NoClassMemo, MultiPrio):
    pass


class RefEnergyAwareMultiPrio(_NoClassMemo, EnergyAwareMultiPrio):
    pass


@dataclass
class Outcome:
    res: object
    #: Every task's (tid, worker, start, end), sorted by tid.
    records: tuple
    stats: dict
    events: tuple
    brw: dict
    hd: dict
    #: The class memo as the run left it.
    memo: dict


def run_both(make_sched, run) -> tuple[Outcome, Outcome]:
    """Run ``run(scheduler)`` with the memo and with the reference."""
    out = []
    for ref in (False, True):
        sched = make_sched(ref)
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
                dict(sched.best_remaining_work), dict(sched._gain._hd),
                dict(sched._class_memo),
            )
        )
    return out[0], out[1]


def mp(**kw):
    """Scheduler factory: MultiPrio(**kw), or its memo-less reference."""
    return lambda ref: (RefMultiPrio if ref else MultiPrio)(**kw)


def assert_exact(memo: Outcome, ref: Outcome) -> None:
    assert memo.records == ref.records, "per-task (worker, start, end) differ"
    assert memo.res.makespan == ref.res.makespan
    assert memo.stats == ref.stats
    assert memo.events == ref.events
    assert memo.brw == ref.brw
    assert memo.hd == ref.hd


def chains_with_leaves(n_chains: int = 6, length: int = 8):
    """CPU-only chains, each step fanning out to two GPU-able leaves.

    Leaves only read a chain head and write an output nobody reads, so
    the GPU can die mid-run without destroying a needed replica, while
    new leaves keep becoming ready after the death.
    """
    flow = TaskFlow("chains-with-leaves")
    heads = [flow.data(1 << 20, label=f"c{i}") for i in range(n_chains)]
    for step in range(length):
        for i, head in enumerate(heads):
            flow.submit("potrf", [(head, AccessMode.RW)], flops=1e8,
                        implementations=("cpu",))
            for kind, flops in (("gemm", 2e9), ("syrk", 5e8)):
                out = flow.data(1 << 20, label=f"{kind}{i}.{step}")
                flow.submit(kind, [(head, AccessMode.R), (out, AccessMode.W)],
                            flops=flops, implementations=("cpu", "cuda"))
    return flow.program()


class TestMemoIsExact:
    def test_cholesky_intel_v100(self):
        memo, ref = run_both(
            mp(), graph_run("intel-v100", lambda: cholesky_program(12, 960))
        )
        assert_exact(memo, ref)
        assert len(memo.memo) == 4  # potrf, trsm, syrk, gemm

    def test_many_classes_fmm(self):
        # Leaf occupancy varies on an ellipsoid, and with it the P2P/P2M
        # flops: most kernel classes are pushed once or twice.
        def program():
            return fmm_program(
                n_particles=20_000, height=4, distribution="ellipsoid", seed=11
            )

        memo, ref = run_both(mp(), graph_run("intel-v100", program))
        assert_exact(memo, ref)
        assert len(memo.memo) > len(program().tasks) / 3
        # One implementations set, so every class holds the same lanes.
        assert len({id(kc.lanes) for kc in memo.memo.values()}) == 1

    def test_deadline_stream_with_shedding(self):
        run = overloaded_stream_run()
        memo, ref = run_both(mp(deadline_boost=1000.0), run)
        assert_exact(memo, ref)
        assert run.last.control.n_rejected > 0
        assert memo.stats["retractions"] > 0
        assert memo.memo

    def test_task_faults_and_arch_removing_worker_death(self):
        # small-hetero has one single-stream GPU (wid 6): killing it
        # removes the cuda architecture mid-run.
        faults = FaultModel(
            task_failure_rate=0.05, worker_kills={6: 27_000.0}, max_retries=50,
            seed=2,
        )
        memo, ref = run_both(
            mp(), graph_run("small-hetero", chains_with_leaves, faults=faults)
        )
        assert_exact(memo, ref)
        assert memo.stats["task_failures"] > 0
        assert memo.res.faults.worker_failures == 1
        # Rebuilt after the death: no cached class still offers cuda.
        assert memo.memo
        assert all(set(kc.deltas) == {"cpu"} for kc in memo.memo.values())

    def test_batched_push(self):
        memo, ref = run_both(
            mp(),
            graph_run(
                "small-hetero", lambda: cholesky_program(10, 512), batch_step=50.0
            ),
        )
        assert_exact(memo, ref)

    @pytest.mark.parametrize(
        "kw",
        [{"relaxed": 4}, {"arch_filtered_nod": True}, {"use_criticality": False}],
        ids=["relaxed", "arch-nod", "no-crit"],
    )
    def test_scheduler_knobs(self, kw):
        memo, ref = run_both(
            mp(**kw), graph_run("small-hetero", lambda: cholesky_program(10, 512))
        )
        assert_exact(memo, ref)
        assert memo.memo

    @pytest.mark.parametrize("objective", ["energy", "edp"])
    def test_energy_variants(self, objective):
        def make(ref):
            cls = RefEnergyAwareMultiPrio if ref else EnergyAwareMultiPrio
            return cls(objective=objective)

        memo, ref = run_both(
            make, graph_run("small-hetero", lambda: cholesky_program(10, 512))
        )
        assert_exact(memo, ref)
        assert memo.memo

    def test_history_model_leaves_memo_unused(self):
        calib = MACHINES["small-hetero"]().calibration()

        def run(sched):
            # A fresh history per run: the model learns as tasks finish.
            history = HistoryPerfModel(AnalyticalPerfModel(calib))
            spec = SimSpec(
                "small-hetero", sched, perfmodel=history, record_level="tasks"
            )
            return spec.run(cholesky_program(8, 512))

        memo, ref = run_both(mp(), run)
        assert_exact(memo, ref)
        assert memo.memo == {}


class _CountingModel(AnalyticalPerfModel):
    def __init__(self, table):
        super().__init__(table)
        self.calls = 0

    def estimate(self, task, arch):
        self.calls += 1
        return super().estimate(task, arch)


def push_side_estimates(cls):
    """Perf-model queries made inside ``push`` on a cholesky run."""

    class Counting(cls):
        pushes = 0
        estimates = 0

        def push(self, task):
            before = self.ctx.perfmodel.calls
            super().push(task)
            self.pushes += 1
            self.estimates += self.ctx.perfmodel.calls - before

    machine = "intel-v100"
    program = cholesky_program(10, 960)
    model = _CountingModel(MACHINES[machine]().calibration())
    sched = Counting()
    SimSpec(machine, sched, perfmodel=model).run(program)
    classes = {(t.type_name, t.flops, t.implementations) for t in program.tasks}
    return sched, len(classes), len(sched.ctx.available_archs)


def test_memo_engaged_on_cholesky():
    memo, n_classes, n_archs = push_side_estimates(MultiPrio)
    ref, _, _ = push_side_estimates(RefMultiPrio)
    assert memo.pushes == ref.pushes >= 200
    assert memo.estimates <= n_classes * n_archs
    assert ref.estimates >= ref.pushes


def test_hd_rise_rescores_cached_class(hetero_machine):
    """A class scored before another class raised hd(a) is re-scored."""
    ctx = SchedContext(
        hetero_machine.platform(), AnalyticalPerfModel(hetero_machine.calibration())
    )
    sched = MultiPrio()
    sched.setup(ctx)
    flow = TaskFlow()

    def task(flops):
        t = flow.submit("gemm", [(flow.data(1024), AccessMode.RW)], flops=flops,
                        implementations=("cpu", "cuda"))
        t.state = TaskState.READY
        return t

    first_a = task(1e8)
    sched.push(first_a)
    deltas_a = dict(first_a.sched["mp_deltas"])
    hd_before = dict(sched._gain._hd)
    sched.push(task(4e9))  # class B: a far larger cpu/cuda difference
    hd_after = dict(sched._gain._hd)
    assert all(hd_after[a] > hd_before[a] for a in deltas_a)
    second_a = task(1e8)
    sched.push(second_a)
    want = gain_scores(deltas_a, hd_after)
    assert want != gain_scores(deltas_a, hd_before)  # a stale score differs
    entries = second_a.sched["mp_entries"]
    assert entries
    for mid, entry in entries.items():
        arch = ctx.platform.nodes[mid].arch
        assert entry.gain == want[arch]
    assert second_a.sched["mp_deltas"] is first_a.sched["mp_deltas"]


def test_cached_best_arch_survives_a_memoized_push(hetero_machine):
    """A task that already carries a best arch (a fault retry) keeps it,
    even though its class's memoized best arch differs."""
    ctx = SchedContext(
        hetero_machine.platform(), AnalyticalPerfModel(hetero_machine.calibration())
    )
    sched = MultiPrio()
    sched.setup(ctx)
    flow = TaskFlow()

    def task():
        t = flow.submit("gemm", [(flow.data(1024), AccessMode.RW)], flops=4e9,
                        implementations=("cpu", "cuda"))
        t.state = TaskState.READY
        return t

    first = task()
    sched.push(first)
    assert first.sched["_best_arch"] == "cuda"
    retry = task()
    retry.sched["_best_arch"] = "cpu"
    sched.push(retry)
    assert retry.sched["_best_arch"] == "cpu"
    assert retry.sched["mp_best_delta"] == first.sched["mp_deltas"]["cpu"]
    cpu_nodes = {n.mid for n in ctx.platform.nodes_of_arch("cpu")}
    assert set(retry.sched["mp_brw_nodes"]) == cpu_nodes
