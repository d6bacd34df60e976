"""Batched hot path: bit-identity, provenance, gating, liveness."""

import pytest

from repro.api import SimConfig, SimSpec
from repro.apps.dense import cholesky_program, lu_program
from repro.check.differential import fingerprint
from repro.control.plane import default_overload_config
from repro.experiments.overload import (
    estimate_job_cost_us,
    overload_workload,
    sustainable_rate_jobs_per_s,
)
from repro.platform import MACHINES
from repro.runtime.engine import SchedulingError
from repro.runtime.perfmodel import AnalyticalPerfModel
from repro.runtime.engine import Simulator
from repro.schedulers import make_scheduler


def run(scheduler="multiprio", batch_step=None, drain=True, app=cholesky_program,
        n=6, record_level="tasks", **cfg_kw):
    spec = SimSpec(
        "small-hetero", scheduler,
        config=SimConfig(record_level=record_level, check_invariants=True,
                         batch_step=batch_step, batch_drain_on_idle=drain,
                         **cfg_kw),
    )
    return spec.run(app(n, 384))


class TestBitIdentity:
    @pytest.mark.parametrize("scheduler", ["multiprio", "eager", "dmdas",
                                           "multiqueue"])
    @pytest.mark.parametrize("step", [1.0, 250.0, 1e9])
    def test_drain_on_idle_is_bit_identical(self, scheduler, step):
        """Any batch step: drain-on-idle flushes before every pop, so the
        scheduler sees per-event queue contents at each decision."""
        base = run(scheduler)
        batched = run(scheduler, batch_step=step)
        assert fingerprint(base) == fingerprint(batched)

    def test_windowed_run_is_bit_identical(self):
        base = run(submission_window=16)
        batched = run(batch_step=100.0, submission_window=16)
        assert fingerprint(base) == fingerprint(batched)

    def test_relaxed_multiprio_is_bit_identical(self):
        base = run(sched_params={"relaxed": 4})
        batched = run(batch_step=500.0, sched_params={"relaxed": 4})
        assert fingerprint(base) == fingerprint(batched)


class TestNoDrain:
    def test_fixed_step_completes_every_task(self):
        res = run(batch_step=200.0, drain=False, app=lu_program)
        assert len(fingerprint(res)[0]) == len(lu_program(6, 384).tasks)

    def test_giant_step_completes_via_flush_rescue(self):
        """One bin holding the whole graph must still finish the run."""
        res = run(batch_step=1e9, drain=False)
        assert len(fingerprint(res)[0]) == len(cholesky_program(6, 384).tasks)


class TestBatchStats:
    def test_absent_on_per_event_path(self):
        assert run().batch_stats is None

    def test_counts_every_buffered_reveal(self):
        res = run(batch_step=100.0)
        stats = res.batch_stats
        n_tasks = len(cholesky_program(6, 384).tasks)
        assert stats is not None
        assert stats["n_batched"] == n_tasks
        assert 1 <= stats["n_flushes"] <= n_tasks
        assert stats["max_batch"] >= 1
        assert stats["mean_batch"] == pytest.approx(
            stats["n_batched"] / stats["n_flushes"]
        )

    def test_large_step_actually_bins(self):
        """The equivalence must not hold vacuously: with a generous step
        some flush carries more than one task."""
        res = run(batch_step=1e9)
        assert res.batch_stats["max_batch"] > 1


class TestProvenance:
    def test_batch_scheduled_events_emitted(self):
        res = run(batch_step=100.0, record_level="all")
        flushes = [e for e in res.events if e.kind == "batch_scheduled"]
        assert flushes
        assert sum(e.n for e in flushes) == res.batch_stats["n_batched"]
        assert {e.trigger for e in flushes} <= {"step", "drain", "rescue"}
        assert all(e.n >= 1 for e in flushes)

    def test_no_events_without_batching(self):
        res = run(record_level="all")
        assert not [e for e in res.events if e.kind == "batch_scheduled"]


class TestValidationAndGating:
    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_rejects_nonpositive_step(self, bad):
        mach = MACHINES["small-hetero"]()
        with pytest.raises(SchedulingError):
            Simulator(
                mach.platform(),
                make_scheduler("eager"),
                AnalyticalPerfModel(mach.calibration()),
                batch_step=bad,
            )

    def test_control_eviction_with_buffered_tasks(self):
        """Overloaded controlled stream under batching: the engine must
        retract its own buffered tasks on eviction, checker-clean, and
        conserve the job ledger."""
        machine = "small-hetero"
        job_cost = estimate_job_cost_us(machine)
        rate = 4.0 * sustainable_rate_jobs_per_s(machine, job_cost)
        stream = overload_workload(
            rate_jobs_per_s=rate, n_tenants=6, n_jobs=24, seed=3
        )
        n_workers = len(MACHINES[machine]().platform().workers)
        control = default_overload_config(
            tenants=stream.tenants,
            sustainable_work_per_s=float(n_workers),
            job_cost_us=job_cost,
            max_inflight_jobs=2.0 * n_workers,
        )
        spec = SimSpec(
            machine, "multiprio", control=control, isolated_baseline=False,
            config=SimConfig(check_invariants=True, batch_step=300.0),
        )
        sres = spec.run_stream(stream)
        ledger = sres.control
        assert ledger.n_completed + ledger.n_rejected + ledger.n_evicted \
            == ledger.n_arrived == 24
        assert ledger.n_rejected + ledger.n_evicted > 0
