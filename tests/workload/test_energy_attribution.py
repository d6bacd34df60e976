"""Per-job joules on stream results come only from the power ledger.

With a power model, each ``JobResult.energy_j`` is the sum of the
ledger's per-task charges; with ``power=None`` a stream result carries
no per-job joules at all.
"""

from __future__ import annotations

import pytest

from repro.api import SimSpec
from repro.apps.dense import cholesky_program
from repro.obs.events import TaskEnd
from repro.platform.machines import MACHINES
from repro.runtime.faults import FaultModel
from repro.runtime.power import PowerModel, PowerStateModel
from repro.workload.merge import merge_stream
from repro.workload.stream import poisson_stream
from tests.conftest import make_fork_join_program

MACHINE = "small-hetero"


def small_stream():
    return poisson_stream(
        [
            ("chol", lambda: cholesky_program(4, 384)),
            ("forkjoin", lambda: make_fork_join_program(width=6)),
        ],
        rate_jobs_per_s=120.0,
        n_jobs=6,
        seed=0,
        tenants=("t0", "t1"),
    )


CASES = {
    "multiprio": dict(scheduler="multiprio"),
    "dmdas": dict(scheduler="dmdas"),
    "multiqueue-batched": dict(scheduler="multiqueue", batch_step=50.0),
    "multiprio-faults": dict(
        scheduler="multiprio",
        faults=FaultModel(task_failure_rate=0.2, max_retries=100, seed=3),
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_metered_job_joules_are_span_times_busy_watts(case):
    """Under the metering model each job's joules equal, bit for bit,
    Σ (end − start) × busy watts × 1e-6 over its completed executions
    in tid order, and metering leaves the makespan unchanged."""
    kwargs = dict(CASES[case], isolated_baseline=False)
    stream = small_stream()
    plain = SimSpec(MACHINE, **kwargs).run_stream(stream)
    metered = SimSpec(
        MACHINE, **kwargs, power=PowerStateModel.metering(),
        record_level="tasks",
    ).run_stream(stream)
    assert metered.makespan_us == plain.makespan_us

    power = PowerModel()
    workers = MACHINES[MACHINE]().platform().workers
    ends = {e.tid: e for e in metered.sim.events if isinstance(e, TaskEnd)}
    by_jid = {job.jid: job for job in metered.jobs}
    spans = merge_stream(stream).jobs
    assert len(spans) == len(by_jid)
    for span in spans:
        ref = 0.0
        for tid in range(span.first_tid, span.first_tid + span.n_tasks):
            end = ends[tid]
            watts = power.arch_power(workers[end.wid].arch).busy_watts
            ref += (end.end - end.start) * watts * 1e-6
        assert by_jid[span.jid].energy_j == ref
    assert metered.jobs_energy_j > 0.0


def test_no_power_model_means_no_job_joules():
    sres = SimSpec(
        MACHINE, "multiprio", isolated_baseline=False,
    ).run_stream(small_stream())
    assert sres.jobs
    assert all(job.energy_j is None for job in sres.jobs)
    assert sres.jobs_energy_j == 0.0
    assert sres.total_energy_j is None
    assert all("energy_j" not in entry for entry in sres.per_tenant().values())
