"""End-to-end control-plane runs through SimSpec.run_stream().

Covers the issue's acceptance criteria: a no-op control plane is
bit-identical to an uncontrolled run, overload sheds only lower
classes while guaranteed jobs all complete, the ledger conserves
credit under the invariant checker, all-rejected streams stay
NaN-free, and cancellation releases cross-job ``after`` chains.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.api import SimSpec
from repro.apps.dense import cholesky_program
from repro.check.differential import fingerprint
from repro.control.plane import ControlConfig, default_overload_config
from repro.control.quota import TenantQuota
from repro.experiments.overload import (
    estimate_job_cost_us,
    overload_workload,
    sustainable_rate_jobs_per_s,
)
from repro.obs.events import JobAdmitted, JobRejected
from repro.platform import MACHINES
from repro.workload.stream import Job, JobStream, poisson_stream


def mixed_stream(n_jobs=6, rate=200.0, seed=7):
    return poisson_stream(
        [("chol", lambda: cholesky_program(4, 384))],
        rate_jobs_per_s=rate,
        n_jobs=n_jobs,
        seed=seed,
        tenants=("t0", "t1", "t2"),
        qos=("guaranteed", "burstable", "best-effort"),
    )


def overloaded_run(multiplier=4.0, n_tenants=6, n_jobs=24, seed=3, **kwargs):
    machine = "small-hetero"
    job_cost = estimate_job_cost_us(machine)
    rate = multiplier * sustainable_rate_jobs_per_s(machine, job_cost)
    stream = overload_workload(
        rate_jobs_per_s=rate, n_tenants=n_tenants, n_jobs=n_jobs, seed=seed
    )
    n_workers = len(MACHINES[machine]().platform().workers)
    control = default_overload_config(
        tenants=stream.tenants,
        sustainable_work_per_s=float(n_workers),
        job_cost_us=job_cost,
        max_inflight_jobs=2.0 * n_workers,
    )
    return SimSpec(
        machine, "multiprio", control=control, isolated_baseline=False,
        **kwargs,
    ).run_stream(stream)


class TestNoopBitIdentity:
    @pytest.mark.parametrize("scheduler", ["multiprio", "dmdas"])
    def test_unlimited_control_is_bit_identical(self, scheduler):
        stream = mixed_stream()
        plain = SimSpec(
            "small-hetero", scheduler, isolated_baseline=False,
            record_trace=True,
        ).run_stream(stream)
        controlled = SimSpec(
            "small-hetero", scheduler, control=ControlConfig.unlimited(),
            isolated_baseline=False, record_trace=True,
        ).run_stream(stream)
        assert fingerprint(plain.sim) == fingerprint(controlled.sim)
        ledger = controlled.control
        assert ledger is not None
        assert ledger.n_arrived == ledger.n_completed == len(stream)
        assert ledger.n_rejected == ledger.n_evicted == ledger.n_delays == 0
        assert controlled.sim.n_cancelled == 0


class TestOverload:
    def test_credit_conservation_under_checker(self):
        sres = overloaded_run(check_invariants=True)
        ledger = sres.control
        assert ledger.n_completed + ledger.n_rejected + ledger.n_evicted \
            == ledger.n_arrived == 24
        # 4x load through a 1x-provisioned control plane must refuse work.
        assert ledger.n_rejected + ledger.n_evicted > 0
        # StreamResult only reports jobs that actually completed.
        assert len(sres.jobs) == ledger.n_completed
        assert {j.jid for j in sres.jobs} \
            == {o.jid for o in ledger.outcomes if o.status == "completed"}

    def test_guaranteed_class_is_protected(self):
        ledger = overloaded_run().control
        guaranteed = [o for o in ledger.outcomes if o.qos == "guaranteed"]
        assert guaranteed
        assert all(o.status == "completed" for o in guaranteed)
        for o in ledger.outcomes:
            if o.status in ("rejected", "evicted"):
                assert o.qos in ("burstable", "best-effort")
        per_class = ledger.per_class()
        assert per_class["guaranteed"]["rejection_rate"] == 0.0
        assert per_class["guaranteed"]["eviction_rate"] == 0.0
        assert math.isfinite(per_class["guaranteed"]["p99_slowdown"])

    def test_admission_events_recorded(self):
        sres = overloaded_run(record_level="tasks")
        admitted = [e for e in sres.sim.events if isinstance(e, JobAdmitted)]
        rejected = [e for e in sres.sim.events if isinstance(e, JobRejected)]
        ledger = sres.control
        assert len(admitted) == ledger.n_admitted
        assert len(rejected) == ledger.n_rejected
        qos_of = {o.jid: o.qos for o in ledger.outcomes}
        assert all(e.qos == qos_of[e.jid] for e in admitted + rejected)

    def test_report_is_json_serializable(self):
        sres = overloaded_run(n_jobs=12)
        doc = json.loads(json.dumps(sres.as_dict()))
        assert doc["control"]["n_arrived"] == 12
        assert set(doc["control"]["per_class"]) <= {
            "guaranteed", "burstable", "best-effort"
        }


class TestDegenerateStreams:
    def test_all_rejected_stream_is_nan_free(self):
        stream = poisson_stream(
            [("chol", lambda: cholesky_program(4, 384))],
            rate_jobs_per_s=100.0, n_jobs=4, seed=1,
            tenants=("t0",), qos=("best-effort",),
        )
        control = ControlConfig(
            default_quota=TenantQuota(rate=0.0, burst=1e-6)
        )
        sres = SimSpec(
            "small-hetero", "multiprio", control=control,
            isolated_baseline=False, check_invariants=True,
        ).run_stream(stream)
        ledger = sres.control
        assert ledger.n_rejected == 4 and ledger.n_completed == 0
        assert list(sres.jobs) == []
        for value in (
            sres.makespan_us, sres.mean_latency_us, sres.p99_latency_us,
            sres.mean_queueing_us, sres.fairness, sres.tenant_fairness,
            sres.throughput_jobs_per_s,
        ):
            assert math.isfinite(value)
        overall = ledger.overall()
        assert overall["slo_miss_rate"] == 1.0
        assert all(math.isfinite(v) for v in overall.values())

    def test_shed_job_releases_after_dependent_job(self):
        # j1 chains after j0; j0 is shed (zero-credit best-effort), and
        # the cancellation must still release j1's sources.
        jobs = (
            Job(jid=0, arrival_us=0.0, program=cholesky_program(4, 384),
                tenant="be", name="doomed", qos="best-effort"),
            Job(jid=1, arrival_us=10.0, program=cholesky_program(4, 384),
                tenant="g", name="heir", after=0, qos="guaranteed"),
        )
        control = ControlConfig(
            quotas={"be": TenantQuota(rate=0.0, burst=1e-6)}
        )
        sres = SimSpec(
            "small-hetero", "multiprio", control=control,
            isolated_baseline=False, check_invariants=True,
        ).run_stream(JobStream(name="chain", jobs=jobs))
        ledger = sres.control
        by_jid = {o.jid: o for o in ledger.outcomes}
        assert by_jid[0].status == "rejected"
        assert by_jid[1].status == "completed"
        assert len(sres.jobs) == 1 and sres.jobs[0].jid == 1
