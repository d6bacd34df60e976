"""The five benchmark workloads, each one call into the public ``SimSpec`` facade.

A workload builds its inputs from a seed (the set-up the benchmark
times as ``setup_s``), exposes the one facade call it times as
``run_s``, and turns the call's result into simulated metrics plus the
list of output checks that failed. Streams are open loop in simulated
time: Poisson arrivals at a fixed rate, whatever the host speed.

Import this module only after :func:`bench.use_repro`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable

from repro.analysis.stats import percentile
from repro.api import SimSpec
from repro.apps.dense import cholesky_program, lu_program
from repro.check.differential import makespan_lower_bounds
from repro.cluster.spec import star_cluster
from repro.control.plane import default_overload_config
from repro.control.quota import TenantQuota
from repro.experiments.cluster_scale import cluster_workload
from repro.experiments.energy_pareto import node_caps_for
from repro.experiments.overload import estimate_job_cost_us
from repro.platform.machines import MACHINES
from repro.runtime.overhead import SchedOverheadModel
from repro.runtime.power import PowerStateModel
from repro.runtime.stf import TaskFlow
from repro.runtime.task import AccessMode, TaskState
from repro.workload.stream import QOS_CLASSES, JobStream, poisson_stream

#: Float slack for the critical-path check: the bound and the makespan
#: sum the same estimates in different orders.
_BOUND_SLACK = 1e-6


@dataclass(frozen=True)
class Prepared:
    """One workload's inputs, ready for the timed facade call."""

    #: The facade call ``run_s`` times.
    call: Callable[[], Any]
    #: Input tasks, the numerator of ``tasks_per_s``.
    n_tasks: int
    #: Registry name of the per-node scheduler (the tracer wraps its class).
    scheduler: str
    #: ``result -> (simulated metrics, failed checks)``.
    evaluate: Callable[[Any], tuple[dict[str, float], list[str]]]


@dataclass(frozen=True)
class Workload:
    name: str
    #: Seed used when ``--seed`` is not given.
    default_seed: int
    build: Callable[[int, bool], Prepared]


def _dense(n_tiles: int, **knobs) -> Prepared:
    program = cholesky_program(n_tiles, 960)
    spec = SimSpec("intel-v100", "multiprio", **knobs)

    def evaluate(res) -> tuple[dict[str, float], list[str]]:
        critical_path, _ = makespan_lower_bounds(program, MACHINES["intel-v100"]())
        failed = []
        not_done = sum(t.state is not TaskState.DONE for t in program.tasks)
        if not_done or res.n_tasks != len(program):
            failed.append(f"{not_done} of {len(program)} tasks did not complete")
        if res.makespan < critical_path * (1 - _BOUND_SLACK):
            failed.append(
                f"makespan {res.makespan!r} us is below the critical-path "
                f"bound {critical_path!r} us"
            )
        return {"makespan_us": res.makespan, "sim_gflops": res.gflops}, failed

    return Prepared(lambda: spec.run(program), len(program), "multiprio", evaluate)


def dense_cholesky(seed: int, smoke: bool) -> Prepared:
    del seed  # a task graph has no random input
    return _dense(8 if smoke else 40)


def dense_audited(seed: int, smoke: bool) -> Prepared:
    del seed
    return _dense(4 if smoke else 16, check_invariants=True, record_level="tasks")


def _latencies(jobs) -> dict[str, float]:
    lat = [j.latency_us for j in jobs]
    return {
        "job_latency_p50_us": percentile(lat, 0.50),
        "job_latency_p95_us": percentile(lat, 0.95),
    }


def _all_tasks_done(res, stream: JobStream) -> list[str]:
    """Completed jobs must cover every input task."""
    n_done = sum(j.n_tasks for j in res.jobs)
    if len(res.jobs) != len(stream) or n_done != stream.n_tasks:
        return [
            f"{len(res.jobs)} of {len(stream)} jobs / {n_done} of "
            f"{stream.n_tasks} tasks completed"
        ]
    return []


def light_bag_program():
    """One job of 20 independent light tasks (one 4 KB write each)."""
    tf = TaskFlow("light")
    for i in range(20):
        h = tf.data(4096, label=f"d{i}")
        tf.submit(
            "light", [(h, AccessMode.W)], flops=1e6,
            implementations=("cpu", "cuda"),
        )
    return tf.program()


def light_stream(seed: int, smoke: bool) -> Prepared:
    # 2000 jobs/s of 20 tiny tasks keeps small-hetero just under
    # saturation: scheduling work per task is small, so the stream,
    # merge, baseline and assembly costs around the engine dominate.
    stream = poisson_stream(
        [("light", light_bag_program)],
        rate_jobs_per_s=2000.0,
        n_jobs=50 if smoke else 1000,
        seed=seed,
        name="light",
    )
    spec = SimSpec(
        "small-hetero", "multiqueue", batch_step=500.0, batch_drain_on_idle=False
    )

    def evaluate(res) -> tuple[dict[str, float], list[str]]:
        sim = {"makespan_us": res.makespan_us, **_latencies(res.jobs),
               "mean_slowdown": res.mean_slowdown}
        return sim, _all_tasks_done(res, stream)

    return Prepared(
        lambda: spec.run_stream(stream), stream.n_tasks, "multiqueue", evaluate
    )


def tenant_stream(seed: int, smoke: bool) -> Prepared:
    # Heavy tasks, few jobs, every optional ledger on (admission control,
    # charged scheduler overheads, power caps) and baselines off. The work
    # must not depend on the seed: at 90 jobs/s the load shed 5-19% of the
    # jobs, and the work varied by 12% between seeds. At 50 jobs/s the load
    # sheds almost nothing, and the control plane's delay and shed paths
    # run on two tenants whose bucket holds one job and never refills:
    # t10 (burstable) and t11 (best-effort) lose the same jobs every seed.
    tenants = tuple(f"t{i:02d}" for i in range(12))
    job_cost_us = estimate_job_cost_us("small-hetero", 6, 512)
    control = default_overload_config(
        tenants=tenants,
        sustainable_work_per_s=7.0,
        job_cost_us=job_cost_us,
        max_inflight_jobs=14.0,
    )
    starved = TenantQuota(rate=0.0, burst=job_cost_us / 1e6)
    control = replace(control, quotas={"t10": starved, "t11": starved})
    spec = SimSpec(
        "small-hetero",
        "multiprio-deadline",
        control=control,
        overhead=SchedOverheadModel(push_us=2.0, pop_us=2.0, flush_us=5.0),
        power=PowerStateModel(node_cap_watts=node_caps_for("small-hetero", 1.0)),
        isolated_baseline=False,
    )
    stream = poisson_stream(
        [("cholesky", lambda: cholesky_program(6, 512)),
         ("lu", lambda: lu_program(6, 512))],
        rate_jobs_per_s=50.0,
        n_jobs=40 if smoke else 400,
        seed=seed,
        tenants=tenants,
        qos=QOS_CLASSES,
        deadline=(120e3, 180e3),
        name="tenants",
    )

    def evaluate(res) -> tuple[dict[str, float], list[str]]:
        ctl = res.control
        failed = []
        settled = ctl.n_completed + ctl.n_rejected + ctl.n_evicted
        if ctl.n_arrived != len(stream) or settled != ctl.n_arrived:
            failed.append(
                f"completed {ctl.n_completed} + rejected {ctl.n_rejected} + "
                f"evicted {ctl.n_evicted} != arrived {ctl.n_arrived} "
                f"(stream has {len(stream)} jobs)"
            )
        if len(res.jobs) != ctl.n_completed:
            failed.append(
                f"{len(res.jobs)} job results for {ctl.n_completed} completed jobs"
            )
        sim = {
            "makespan_us": res.makespan_us,
            **_latencies(res.jobs),
            "deadline_miss_rate": res.deadline_miss_rate,
            "jobs_shed_frac": (ctl.n_rejected + ctl.n_evicted) / ctl.n_arrived,
            "energy_j": res.total_energy_j,
        }
        return sim, failed

    return Prepared(
        lambda: spec.run_stream(stream), stream.n_tasks, "multiprio-deadline",
        evaluate,
    )


def cluster_chains(seed: int, smoke: bool) -> Prepared:
    stream = cluster_workload(
        n_chains=8 if smoke else 96, chain_len=3, rate_chains_per_s=1600.0,
        seed=seed,
    )
    cluster = star_cluster(4 if smoke else 32)
    spec = SimSpec(scheduler="multiprio")

    def call():
        # jobs=1: node engines run in this process, one at a time.
        return spec.run_cluster(stream, cluster, placement="locality-aware", jobs=1)

    def evaluate(res) -> tuple[dict[str, float], list[str]]:
        failed = []
        n_done = sum(j.n_tasks for j in res.jobs)
        if len(res.jobs) + len(res.rejected) != len(stream) or (
            not res.rejected and n_done != stream.n_tasks
        ):
            failed.append(
                f"{len(res.jobs)} completed + {len(res.rejected)} rejected of "
                f"{len(stream)} jobs; {n_done} of {stream.n_tasks} tasks"
            )
        if not res.converged:
            failed.append(f"cross-node fixed point did not converge in {res.rounds} rounds")
        sim = {"makespan_us": res.makespan_us, **_latencies(res.jobs),
               "mean_slowdown": res.mean_slowdown}
        return sim, failed

    return Prepared(call, stream.n_tasks, "multiprio", evaluate)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("dense-cholesky", 0, dense_cholesky),
        Workload("light-stream", 1, light_stream),
        Workload("tenant-stream", 0, tenant_stream),
        Workload("cluster-chains", 0, cluster_chains),
        Workload("dense-audited", 0, dense_audited),
    )
}
