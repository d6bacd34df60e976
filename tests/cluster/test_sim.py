"""End-to-end cluster simulation: determinism, equivalence, fabric,
global admission and the checker family."""

import pytest

from repro.api import SimSpec
from repro.apps.dense import cholesky_program, lu_program
from repro.check.cluster import check_cluster
from repro.cluster import (
    fat_tree_cluster,
    job_output_bytes,
    job_work_us,
    simulate_cluster,
    star_cluster,
)
from repro.control import ControlConfig, TenantQuota
from repro.utils.validation import ValidationError
from repro.workload.stream import Job, JobStream, poisson_stream


def _stream(n_jobs=8, rate=200.0, seed=3):
    return poisson_stream(
        [lambda: cholesky_program(3, 512), lambda: lu_program(3, 512)],
        rate_jobs_per_s=rate,
        n_jobs=n_jobs,
        seed=seed,
        tenants=("t0", "t1"),
    )


def _chain_stream(n=4):
    jobs = [Job(jid=0, arrival_us=0.0, program=cholesky_program(4, 512))]
    for i in range(1, n):
        jobs.append(Job(
            jid=i, arrival_us=10.0 * i,
            program=cholesky_program(4, 512), after=i - 1,
        ))
    return JobStream(name="chain", jobs=tuple(jobs))


def _fingerprint(res):
    return (
        res.makespan_us,
        {n: recs for n, recs in res._task_records.items()},
        [(j.jid, j.node, j.start_us, j.end_us) for j in res.jobs],
        res.total_inter_node_bytes,
    )


class TestBasics:
    def test_all_jobs_complete_with_placements(self):
        stream = _stream()
        res = SimSpec(check_invariants=True).run_cluster(stream, star_cluster(4))
        assert len(res.jobs) == len(stream.jobs)
        assert set(res.placements) == {j.jid for j in stream.jobs}
        for job in res.jobs:
            assert job.node == res.placements[job.jid].node
        assert sum(n.n_jobs for n in res.nodes) == len(stream.jobs)
        assert 0.0 < res.mean_utilization <= 1.0
        assert res.imbalance >= 1.0
        assert res.converged

    def test_report_is_json_ready(self):
        import json

        res = simulate_cluster(_stream(4), star_cluster(2))
        doc = res.as_dict()
        json.dumps(doc)
        assert doc["n_nodes"] == 2
        assert doc["policy"] == "load-aware"
        assert len(doc["jobs"]) == 4

    def test_work_and_output_helpers(self):
        import math

        prog = cholesky_program(3, 512)
        clus_model = star_cluster(1).nodes[0].machine
        from repro.runtime.perfmodel import AnalyticalPerfModel

        pm = AnalyticalPerfModel(clus_model.calibration())
        work = job_work_us(prog, pm, ("cpu", "gpu"))
        assert math.isfinite(work) and work > 0.0
        assert job_output_bytes(prog) > 0

    def test_unsupported_config_knobs_rejected(self):
        from repro.api import SimConfig

        with pytest.raises(ValidationError, match="record_trace"):
            simulate_cluster(
                _stream(2), star_cluster(2),
                config=SimConfig(record_trace=True),
            )

    def test_unknown_placement_rejected(self):
        with pytest.raises(ValidationError, match="unknown placement"):
            simulate_cluster(_stream(2), star_cluster(2), placement="bogus")


class TestDeterminism:
    def test_repeat_runs_bit_identical(self):
        stream = _stream()
        spec = fat_tree_cluster(4, pod_size=2)
        a = simulate_cluster(stream, spec, placement="random")
        b = simulate_cluster(stream, spec, placement="random")
        assert _fingerprint(a) == _fingerprint(b)

    def test_sharded_execution_bit_identical(self):
        stream = _stream()
        spec = star_cluster(4)
        serial = simulate_cluster(stream, spec, jobs=1)
        sharded = simulate_cluster(stream, spec, jobs=3)
        assert _fingerprint(serial) == _fingerprint(sharded)

    def test_single_node_cluster_matches_simulate_stream(self):
        stream = _stream(6)
        clustered = simulate_cluster(stream, star_cluster(1))
        plain = SimSpec("small-hetero", "multiprio").run_stream(stream)
        assert clustered.makespan_us == plain.makespan_us
        assert [
            (j.jid, j.start_us, j.end_us, j.isolated_us)
            for j in clustered.jobs
        ] == [
            (j.jid, j.start_us, j.end_us, j.isolated_us) for j in plain.jobs
        ]


class TestCrossNodeDependencies:
    def test_chain_scattered_across_nodes_charges_the_fabric(self):
        res = SimSpec(check_invariants=True).run_cluster(
            _chain_stream(4), star_cluster(3), placement="round-robin"
        )
        assert res.converged
        assert len(res.transfers) == 3  # every hop of the chain crossed
        expected = 3 * 2 * job_output_bytes(cholesky_program(4, 512))
        assert res.total_inter_node_bytes == expected
        jobs = {j.jid: j for j in res.jobs}
        for t in res.transfers:
            assert t.depart_us >= jobs[t.pred_jid].end_us
            assert jobs[t.succ_jid].start_us >= t.arrive_us

    def test_colocated_chain_moves_nothing(self):
        res = simulate_cluster(
            _chain_stream(4), star_cluster(3), placement="locality-aware",
        )
        assert res.transfers == []
        assert res.total_inter_node_bytes == 0
        assert res.rounds == 1  # no cross edges: one engine pass suffices


class TestGlobalAdmission:
    def test_quota_sheds_at_the_cluster_door(self):
        control = ControlConfig(
            default_quota=TenantQuota(rate=0.0, burst=1e-9)
        )
        stream = _stream(6)
        res = simulate_cluster(stream, star_cluster(2), control=control)
        assert len(res.rejected) == 6
        assert all(reason == "quota" for _, _, reason in res.rejected)
        assert res.jobs == []

    def test_guaranteed_jobs_always_admit(self):
        control = ControlConfig(
            default_quota=TenantQuota(rate=0.0, burst=1e-9)
        )
        jobs = tuple(
            Job(
                jid=i, arrival_us=100.0 * i,
                program=cholesky_program(3, 512),
                qos="guaranteed" if i == 0 else "burstable",
            )
            for i in range(3)
        )
        res = SimSpec(control=control, check_invariants=True).run_cluster(
            JobStream(name="mixed", jobs=jobs), star_cluster(2)
        )
        assert [j.jid for j in res.jobs] == [0]
        assert {jid for jid, _, _ in res.rejected} == {1, 2}


class TestChecker:
    def test_clean_run_has_no_violations(self):
        res = simulate_cluster(
            _stream(), fat_tree_cluster(4, pod_size=2),
            placement="round-robin",
        )
        assert check_cluster(res, n_arrived=8) == []

    def test_tampered_placement_flagged(self):
        res = simulate_cluster(_stream(4), star_cluster(2))
        from dataclasses import replace

        jid = res.jobs[0].jid
        res.placements[jid] = replace(res.placements[jid], node="node9")
        msgs = check_cluster(res)
        assert any("cluster.placement" in m for m in msgs)

    def test_missing_arrivals_flagged(self):
        res = simulate_cluster(_stream(4), star_cluster(2))
        msgs = check_cluster(res, n_arrived=5)
        assert any("cluster.conservation" in m for m in msgs)

    def test_uncharged_fabric_flagged(self):
        res = simulate_cluster(
            _chain_stream(3), star_cluster(3), placement="round-robin",
        )
        res.transfers.pop()
        msgs = check_cluster(res)
        assert any("cluster.fabric" in m for m in msgs)
