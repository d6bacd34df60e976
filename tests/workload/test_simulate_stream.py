"""SimSpec.run_stream: equivalence with SimSpec.run, determinism,
per-job stats, obs provenance, invariant-checked runs."""

from __future__ import annotations

import json

import pytest

from repro.api import SimSpec
from repro.apps.dense import cholesky_program
from repro.check.differential import fingerprint
from repro.experiments.stream_arrivals import run_stream_experiment
from repro.obs.events import JobDone, JobSubmit, TaskStart
from repro.schedulers.registry import scheduler_names
from repro.workload.stream import (
    closed_loop_stream,
    poisson_stream,
    trace_stream,
)
from tests.conftest import make_chain_program, make_fork_join_program


def small_stream(rate=120.0, n_jobs=4, seed=0):
    return poisson_stream(
        [
            ("chol", lambda: cholesky_program(4, 384)),
            ("forkjoin", lambda: make_fork_join_program(width=6)),
        ],
        rate_jobs_per_s=rate,
        n_jobs=n_jobs,
        seed=seed,
        tenants=("t0", "t1"),
    )


class TestSingleJobEquivalence:
    @pytest.mark.parametrize("scheduler", scheduler_names())
    def test_stream_of_one_job_matches_simulate(self, scheduler):
        program = cholesky_program(4, 384)
        stream = trace_stream([(0.0, program, "t0")])
        sres = SimSpec(
            "small-hetero", scheduler, isolated_baseline=False,
            record_trace=True,
        ).run_stream(stream)
        res = SimSpec("small-hetero", scheduler, record_trace=True).run(program)
        assert fingerprint(sres.sim) == fingerprint(res)
        assert sres.makespan_us == res.makespan
        job = sres.jobs[0]
        assert job.latency_us == res.makespan
        # start_us includes data staging, so only arrival-relative sanity:
        assert 0.0 <= job.queueing_us < res.makespan


class TestDeterminism:
    @pytest.mark.parametrize(
        "scheduler", ["multiprio", "edf", "multiprio-deadline"]
    )
    def test_same_stream_bit_identical_job_results(self, scheduler):
        stream = small_stream()
        a = SimSpec("small-hetero", scheduler).run_stream(stream)
        b = SimSpec("small-hetero", scheduler).run_stream(stream)
        assert [j.as_dict() for j in a.jobs] == [j.as_dict() for j in b.jobs]
        assert a.makespan_us == b.makespan_us

    @pytest.mark.parametrize(
        "scheduler", ["multiprio", "edf", "multiprio-deadline"]
    )
    def test_deadline_tagged_stream_deterministic(self, scheduler):
        def tagged():
            return poisson_stream(
                [("chol", lambda: cholesky_program(4, 384))],
                rate_jobs_per_s=200.0, n_jobs=4, seed=7,
                tenants=("t0", "t1"), deadline=6000.0,
            )

        a = SimSpec("small-hetero", scheduler).run_stream(tagged())
        b = SimSpec("small-hetero", scheduler).run_stream(tagged())
        assert [j.as_dict() for j in a.jobs] == [j.as_dict() for j in b.jobs]
        assert a.deadline_miss_rate == b.deadline_miss_rate
        assert a.latenesses_us == b.latenesses_us

    def test_experiment_serial_matches_parallel(self):
        kwargs = dict(
            rates=(60.0, 200.0), schedulers=("multiprio",), n_jobs=3,
            n_tiles=4, tile_size=384,
        )
        serial = run_stream_experiment(jobs=1, **kwargs)
        fanned = run_stream_experiment(jobs=2, **kwargs)
        assert [r.jobs for r in serial.rows] == [r.jobs for r in fanned.rows]
        assert [r.fairness for r in serial.rows] == [r.fairness for r in fanned.rows]


class TestPerJobStats:
    def test_jobs_queue_behind_each_other(self):
        # Saturating rate: later jobs must see queueing delay and
        # slowdown > 1 relative to their isolated runs.
        spec = SimSpec("small-hetero", "multiprio")
        sres = spec.run_stream(small_stream(rate=500.0, n_jobs=4))
        assert len(sres.jobs) == 4
        for job in sres.jobs:
            assert job.start_us >= job.arrival_us
            assert job.end_us > job.start_us
            assert job.latency_us > 0.0
            assert job.slowdown is not None and job.slowdown >= 1.0 - 1e-9
        assert sres.mean_queueing_us > 0.0
        assert max(sres.slowdowns) > 1.0
        assert 0.0 < sres.fairness <= 1.0

    def test_per_tenant_breakdown(self):
        sres = SimSpec("small-hetero", "multiprio").run_stream(small_stream())
        by_tenant = sres.per_tenant()
        assert set(by_tenant) == {"t0", "t1"}
        assert sum(v["jobs"] for v in by_tenant.values()) == len(sres.jobs)

    def test_as_dict_is_json_serializable(self):
        spec = SimSpec("small-hetero", "multiprio")
        sres = spec.run_stream(small_stream(n_jobs=2))
        doc = json.loads(json.dumps(sres.as_dict()))
        assert doc["n_jobs"] == 2
        assert len(doc["jobs"]) == 2
        assert all("slowdown" in j for j in doc["jobs"])

    def test_deadline_stats_surface_in_stream_result(self):
        stream = poisson_stream(
            [("chol", lambda: cholesky_program(4, 384))],
            rate_jobs_per_s=400.0, n_jobs=4, seed=2,
            tenants=("t0", "t1"), deadline=5000.0,
        )
        sres = SimSpec(
            "small-hetero", "multiprio", isolated_baseline=False,
        ).run_stream(stream)
        assert len(sres.deadline_jobs) == 4
        for j in sres.jobs:
            assert j.deadline_us == pytest.approx(j.arrival_us + 5000.0)
            assert j.missed == (j.lateness_us > 0.0)
        assert 0.0 <= sres.deadline_miss_rate <= 1.0
        assert sres.deadline_miss_rate == pytest.approx(
            sum(1 for j in sres.jobs if j.missed) / 4
        )
        doc = json.loads(json.dumps(sres.as_dict()))
        assert "deadline_miss_rate" in doc
        assert all("lateness_us" in j for j in doc["jobs"])
        by_tenant = sres.per_tenant()
        assert all("deadline_miss_rate" in v for v in by_tenant.values())

    def test_closed_loop_jobs_serialize_per_client(self):
        stream = closed_loop_stream(
            [lambda: make_chain_program(n=3)], n_clients=2, jobs_per_client=2
        )
        sres = SimSpec(
            "small-hetero", "multiprio", isolated_baseline=False,
        ).run_stream(stream)
        for client in ("client0", "client1"):
            mine = sorted(
                (j for j in sres.jobs if j.tenant == client),
                key=lambda j: j.jid,
            )
            assert len(mine) == 2
            assert mine[1].start_us >= mine[0].end_us - 1e-9


class TestObsProvenance:
    def test_job_submit_and_done_events(self):
        stream = small_stream(n_jobs=3)
        sres = SimSpec(
            "small-hetero", "multiprio", isolated_baseline=False,
            record_level="tasks",
        ).run_stream(stream)
        events = sres.sim.events
        submits = [e for e in events if isinstance(e, JobSubmit)]
        dones = [e for e in events if isinstance(e, JobDone)]
        assert len(submits) == len(dones) == 3
        arrival_of = {j.jid: j.arrival_us for j in stream.jobs}
        tenant_of = {j.jid: j.tenant for j in stream.jobs}
        for ev in submits:
            assert ev.tenant == tenant_of[ev.jid]
            # No window: the reveal happens exactly at the arrival clock.
            assert ev.t == pytest.approx(arrival_of[ev.jid])
        done_of = {e.jid: e for e in dones}
        for job in sres.jobs:
            ev = done_of[job.jid]
            assert ev.latency == pytest.approx(job.latency_us)
            assert ev.tenant == job.tenant

    def test_no_task_starts_before_its_release(self):
        stream = small_stream(n_jobs=3)
        sres = SimSpec(
            "small-hetero", "multiprio", isolated_baseline=False,
            record_level="tasks",
        ).run_stream(stream)
        from repro.workload.merge import merge_stream

        merged_release = merge_stream(stream).release_times
        starts = {
            e.tid: e.t for e in sres.sim.events if isinstance(e, TaskStart)
        }
        for tid, t in starts.items():
            assert t >= merged_release[tid] - 1e-9


class TestCheckedStreams:
    @pytest.mark.parametrize("window", [None, 4])
    def test_invariant_checker_passes_on_streams(self, window):
        sres = SimSpec(
            "small-hetero", "multiprio", isolated_baseline=False,
            check_invariants=True, submission_window=window,
        ).run_stream(small_stream(n_jobs=3))
        assert sres.sim.n_tasks == sum(j.n_tasks for j in sres.jobs)

    def test_checker_does_not_perturb_stream_schedule(self):
        stream = small_stream(n_jobs=3)
        plain = SimSpec(
            "small-hetero", "multiprio", isolated_baseline=False,
            record_trace=True,
        ).run_stream(stream)
        checked = SimSpec(
            "small-hetero", "multiprio", isolated_baseline=False,
            record_trace=True, check_invariants=True,
        ).run_stream(stream)
        assert fingerprint(plain.sim) == fingerprint(checked.sim)
