"""The overload sweep's admission claims (no paper counterpart).

A mixed-QoS stream of 24 jobs from 6 tenants runs at 1× and 4× the
node's sustainable rate, uncontrolled and behind the control plane.
Every arrived job is accounted for, the SLO and fairness figures stay
in range, the controlled 4× row turns work away, and a two-process
sweep reproduces the serial one exactly.
"""

from __future__ import annotations

import pytest

from repro.experiments.overload import run_overload_experiment

KWARGS = {"multipliers": (1.0, 4.0), "n_tenants": 6, "n_jobs": 24}


@pytest.fixture(scope="module")
def sweep():
    return run_overload_experiment(**KWARGS)


def test_every_arrived_job_is_accounted_for(sweep):
    assert len(sweep.rows) == 4
    for row in sweep.rows:
        assert row.completed + row.rejected + row.evicted == row.arrived


def test_slo_and_fairness_in_range(sweep):
    for row in sweep.rows:
        assert 0.0 <= row.slo_miss_rate <= 1.0
        assert 0.0 < row.tenant_fairness <= 1.0


def test_controlled_overload_turns_work_away(sweep):
    controlled = [r for r in sweep.rows if r.controlled]
    assert any(r.rejected + r.evicted > 0 for r in controlled)
    for row in sweep.rows:
        if not row.controlled:
            assert row.rejected == row.evicted == row.delays == 0


def test_parallel_sweep_equals_serial(sweep):
    assert run_overload_experiment(**KWARGS, jobs=2).rows == sweep.rows
