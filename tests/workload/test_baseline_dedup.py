"""Isolated baselines and cluster work estimates run once per distinct job.

Stream and cluster runs key per-job results by the program's structural
signature (and, on a cluster, the node's machine model), so a factory
that builds a fresh program per job still costs one baseline per shape.
"""

from __future__ import annotations

import pytest

import repro.cluster.sim as cluster_sim
from repro.api import SimSpec
from repro.apps.dense import cholesky_program, lu_program
from repro.cluster.sim import simulate_cluster
from repro.cluster.spec import ClusterNodeSpec, ClusterSpec, InterLinkSpec, star_cluster
from repro.experiments.cluster_scale import cluster_workload
from repro.platform.machines import small_hetero
from repro.runtime.engine import Simulator
from repro.runtime.stf import TaskFlow
from repro.runtime.task import AccessMode
from repro.workload.stream import poisson_stream


@pytest.fixture
def engine_runs(monkeypatch):
    """Counts every ``Simulator.run`` call."""
    calls = []
    run = Simulator.run

    def counting(self, program):
        calls.append(program)
        return run(self, program)

    monkeypatch.setattr(Simulator, "run", counting)
    return calls


def _counting(monkeypatch, name):
    calls = []
    fn = getattr(cluster_sim, name)

    def counting(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(cluster_sim, name, counting)
    return calls


def tagged_program():
    """A small job whose task tag is a dict, so it has no signature."""
    flow = TaskFlow("tagged")
    a, b = flow.data(1 << 16), flow.data(1 << 16)
    flow.submit("gemm", [(a, AccessMode.W)], flops=2e8,
                implementations=("cpu", "cuda"), tag={"step": 0})
    flow.submit("gemm", [(a, AccessMode.R), (b, AccessMode.W)], flops=4e8,
                implementations=("cpu", "cuda"), tag={"step": 1})
    return flow.program()


class TestStreamBaselines:
    @pytest.mark.parametrize("scheduler", ["multiprio", "multiqueue"])
    def test_one_builder_makes_one_baseline_run(self, engine_runs, scheduler):
        n = 12
        stream = poisson_stream(
            [lambda: cholesky_program(4, 512)], rate_jobs_per_s=100.0,
            n_jobs=n, seed=3,
        )
        res = SimSpec("small-hetero", scheduler).run_stream(stream)
        assert len(engine_runs) == 2  # the merged stream + one baseline
        alone = SimSpec("small-hetero", scheduler).run(cholesky_program(4, 512))
        assert [j.isolated_us for j in res.jobs] == [alone.makespan] * n

    def test_one_baseline_per_builder(self, engine_runs):
        stream = poisson_stream(
            [lambda: cholesky_program(4, 512), lambda: lu_program(4, 512)],
            rate_jobs_per_s=100.0, n_jobs=9, seed=3,
        )
        SimSpec("small-hetero", "dmdas").run_stream(stream)
        assert len(engine_runs) == 3

    def test_unhashable_tag_falls_back_to_one_run_per_job(self, engine_runs):
        stream = poisson_stream(
            [tagged_program], rate_jobs_per_s=1000.0, n_jobs=4, seed=1,
        )
        spec = SimSpec("small-hetero", "multiprio", noise_sigma=0.3, seed=5)
        res = spec.run_stream(stream)
        assert len(engine_runs) == 1 + 4
        assert [j.isolated_us for j in res.jobs] == [
            spec.run(job.program).makespan for job in stream.jobs
        ]

    def test_baselines_off_makes_no_extra_runs(self, engine_runs):
        stream = poisson_stream(
            [lambda: cholesky_program(4, 512)], rate_jobs_per_s=100.0,
            n_jobs=5, seed=3,
        )
        res = SimSpec("small-hetero", isolated_baseline=False).run_stream(stream)
        assert len(engine_runs) == 1
        assert all(j.isolated_us is None for j in res.jobs)


def _hetero_cluster():
    """Two machine models, the second repeated, around one switch."""
    nodes = (
        ClusterNodeSpec("a", small_hetero()),
        ClusterNodeSpec("b", small_hetero(n_cpus=2)),
        ClusterNodeSpec("c", small_hetero()),
    )
    links = tuple(
        link
        for node in nodes
        for link in (
            InterLinkSpec(node.name, "sw0", 12.5, 50.0),
            InterLinkSpec("sw0", node.name, 12.5, 50.0),
        )
    )
    return ClusterSpec(name="mixed", nodes=nodes, links=links, switches=("sw0",))


class TestClusterBaselines:
    def test_star_cluster_makes_two_baselines_and_two_estimates(self, monkeypatch):
        baselines = _counting(monkeypatch, "_baseline_cell")
        estimates = _counting(monkeypatch, "job_work_us")
        stream = cluster_workload(n_chains=6, chain_len=3, seed=1)
        res = simulate_cluster(stream, star_cluster(4), "multiprio")
        # Two job shapes (Cholesky, LU) on one machine model.
        assert len(baselines) == 2
        assert len(estimates) == 2
        assert all(j.isolated_us is not None for j in res.jobs)

    def test_heterogeneous_cluster_keys_by_machine_and_template(self, monkeypatch):
        baselines = _counting(monkeypatch, "_baseline_cell")
        estimates = _counting(monkeypatch, "job_work_us")
        spec = _hetero_cluster()
        stream = cluster_workload(n_chains=4, chain_len=2, seed=2)
        res = simulate_cluster(stream, spec, "multiprio", placement="round-robin")
        machine_of = {node.name: node.machine for node in spec.nodes}
        shape_of = {job.jid: job.program.name for job in stream.jobs}
        used = {(machine_of[j.node], shape_of[j.jid]) for j in res.jobs}
        assert len(used) == 4  # both shapes landed on both machines
        assert len(baselines) == len(used)
        assert len(estimates) == 2 * 2  # every shape costed on every machine
        program_of = {job.jid: job.program for job in stream.jobs}
        for j in res.jobs:
            alone = SimSpec(machine_of[j.node], "multiprio").run(program_of[j.jid])
            assert j.isolated_us == alone.makespan

    def test_unhashable_tag_falls_back_per_program(self, monkeypatch):
        baselines = _counting(monkeypatch, "_baseline_cell")
        stream = poisson_stream(
            [tagged_program], rate_jobs_per_s=1000.0, n_jobs=3, seed=1,
        )
        res = simulate_cluster(stream, star_cluster(2), "multiprio")
        assert len(baselines) == 3
        machine = star_cluster(2).nodes[0].machine
        assert [j.isolated_us for j in res.jobs] == [
            SimSpec(machine, "multiprio").run(job.program).makespan
            for job in stream.jobs
        ]
