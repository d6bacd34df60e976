"""The faults sweep's robustness claims (no paper counterpart).

The paper measures a healthy platform, but its schedulers live inside
StarPU, where kernels fail and devices drop off. On the Fig. 4 Cholesky
shape: fault-free rows stay exactly at their baselines, transient faults
fire and are retried, and the run survives the death of one GPU stream
without losing a replica (its sibling stream keeps the node alive).
"""

from __future__ import annotations

import pytest

from repro.experiments.faults_sweep import format_faults_sweep, run_faults_sweep


@pytest.fixture(scope="module")
def sweep():
    return run_faults_sweep(n_tiles=8, tile_size=960)


def test_zero_rate_rows_match_their_baseline(sweep):
    zero = [r for r in sweep.rows if r.fault_rate == 0.0]
    assert zero
    for row in zero:
        assert row.stats.task_failures == 0
        assert row.degradation == 0.0  # a disabled model is bit-identical


def test_transient_faults_fire_and_are_retried(sweep):
    faulty = [r for r in sweep.rows if r.fault_rate > 0.0]
    assert faulty
    for row in faulty:
        assert row.stats.task_failures > 0
        assert row.stats.retries == row.stats.task_failures
        assert row.stats.wasted_exec_us > 0.0


def test_stream_death_is_survived_without_replica_loss(sweep):
    assert sweep.killed_rows
    for row in sweep.killed_rows:
        assert row.stats.worker_failures == 1
        assert row.stats.lost_replica_bytes == 0
        assert row.makespan_us > 0.0
    assert "Fail-stop recovery" in format_faults_sweep(sweep)
