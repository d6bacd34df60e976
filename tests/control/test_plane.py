"""Unit tests of the admission controller (repro.control.plane)."""

from types import SimpleNamespace

import pytest

from repro.control.plane import (
    ControlConfig,
    ControlPlane,
    default_overload_config,
)
from repro.control.quota import TenantQuota
from repro.utils.validation import ValidationError
from repro.workload.merge import JobSpan


class _Task:
    """A one-task job's task: executable anywhere, costing ``cost_us``."""

    def __init__(self, cost_us: float) -> None:
        self.cost_us = cost_us

    def can_exec(self, arch: str) -> bool:
        return True


class _Model:
    """A perf model whose estimate is the task's own cost."""

    @staticmethod
    def estimate(task: _Task, arch: str) -> float:
        return task.cost_us


def make_plane(config: ControlConfig, specs) -> ControlPlane:
    """A plane over one single-task job per spec [(jid, tenant, qos,
    cost_us)], jids dense from 0 and each job's tid equal to its jid."""
    program = SimpleNamespace(
        jobs=[
            JobSpan(jid, f"j{jid}", tenant, 0.0, jid, 1, qos)
            for jid, tenant, qos, _ in specs
        ],
        tasks=[_Task(cost) for *_, cost in specs],
    )
    return config.plane(program, _Model(), ("cpu",))


class TestControlConfig:
    @pytest.mark.parametrize("kwargs", [
        {"max_inflight_us": 0.0},
        {"backoff_us": 0.0},
        {"backoff_factor": 0.5},
        {"max_backoff_us": 1.0, "backoff_us": 10.0},
        {"max_delays": -1},
        {"slo_slowdown": 0.0},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            ControlConfig(**kwargs)

    def test_unlimited_is_structurally_noop(self):
        cfg = ControlConfig.unlimited()
        assert cfg.default_quota.unmetered
        assert cfg.max_inflight_us is None
        assert not cfg.evict_on_overload

    def test_default_overload_config_splits_rate(self):
        cfg = default_overload_config(
            tenants=("a", "b"), sustainable_work_per_s=4.0, job_cost_us=100.0
        )
        assert cfg.default_quota.rate == pytest.approx(2.0)
        assert cfg.max_inflight_us == pytest.approx(800.0)

    def test_default_overload_config_needs_tenants(self):
        with pytest.raises(ValidationError):
            default_overload_config(tenants=(), sustainable_work_per_s=1.0)


class TestDecide:
    def test_unlimited_accepts_everything(self):
        plane = make_plane(ControlConfig.unlimited(), [
            (0, "t", "best-effort", 1e9),
            (1, "t", "burstable", 1e9),
        ])
        for jid in (0, 1):
            d = plane.decide(jid, now=0.0)
            assert d.action == "accept" and d.evict_jids == ()
        assert plane.audit(0.0) == []

    def test_quota_exhaustion_sheds_best_effort(self):
        cfg = ControlConfig(default_quota=TenantQuota(rate=0.0, burst=1e-4))
        plane = make_plane(cfg, [
            (0, "t", "best-effort", 90.0),
            (1, "t", "best-effort", 90.0),
        ])
        assert plane.decide(0, now=0.0).action == "accept"
        d = plane.decide(1, now=0.0)
        assert d.action == "shed" and d.reason == "quota"
        assert plane._records[1].status == "shed"

    def test_burstable_delays_with_bounded_backoff_then_sheds(self):
        cfg = ControlConfig(
            default_quota=TenantQuota(rate=0.0, burst=1e-5),
            backoff_us=100.0, backoff_factor=2.0, max_backoff_us=300.0,
            max_delays=3,
        )
        plane = make_plane(cfg, [(0, "t", "burstable", 50.0)])
        retries = []
        now = 0.0
        for _ in range(3):
            d = plane.decide(0, now)
            assert d.action == "delay"
            retries.append(d.retry_at_us - now)
            now = d.retry_at_us
        assert retries == [100.0, 200.0, 300.0]  # capped at max_backoff_us
        d = plane.decide(0, now)
        assert d.action == "shed"
        assert "exhausted-after-3-delays" in d.reason

    def test_guaranteed_always_admitted_even_broke(self):
        cfg = ControlConfig(
            default_quota=TenantQuota(rate=0.0, burst=1e-5),
            max_inflight_us=10.0,
        )
        plane = make_plane(cfg, [
            (0, "t", "guaranteed", 500.0),
            (1, "t", "guaranteed", 500.0),
        ])
        assert plane.decide(0, now=0.0).action == "accept"
        assert plane.decide(1, now=0.0).action == "accept"
        # Overdraft: the bucket went deeply negative but nothing was shed.
        assert plane.accountant.balance_us("t", 0.0) < 0
        assert all(r.status == "admitted" for r in plane.records())

    def test_global_budget_sheds_when_full(self):
        cfg = ControlConfig(max_inflight_us=100.0, evict_on_overload=False)
        plane = make_plane(cfg, [
            (0, "t", "best-effort", 80.0),
            (1, "u", "best-effort", 80.0),
        ])
        assert plane.decide(0, now=0.0).action == "accept"
        d = plane.decide(1, now=0.0)
        assert d.action == "shed" and d.reason == "budget"

    def test_guaranteed_evicts_newest_best_effort_first(self):
        cfg = ControlConfig(max_inflight_us=100.0)
        plane = make_plane(cfg, [
            (0, "a", "best-effort", 40.0),
            (1, "b", "best-effort", 40.0),
            (2, "c", "guaranteed", 60.0),
        ])
        assert plane.decide(0, now=0.0).action == "accept"
        assert plane.decide(1, now=1.0).action == "accept"
        d = plane.decide(2, now=2.0)
        assert d.action == "accept"
        assert d.evict_jids == (1,)  # newest admission evicted first
        assert plane._records[1].status == "evicted"
        assert plane._records[0].status == "admitted"
        assert plane.audit(0.0) == []

    def test_burstable_never_evicted_for_headroom(self):
        cfg = ControlConfig(max_inflight_us=100.0)
        plane = make_plane(cfg, [
            (0, "a", "burstable", 90.0),
            (1, "b", "guaranteed", 60.0),
        ])
        assert plane.decide(0, now=0.0).action == "accept"
        d = plane.decide(1, now=1.0)
        # Admitted by overdraft, but no burstable job may be evicted.
        assert d.action == "accept" and d.evict_jids == ()
        assert plane._records[0].status == "admitted"


class TestSettlement:
    def test_task_completion_returns_budget(self):
        cfg = ControlConfig(max_inflight_us=100.0)
        plane = make_plane(cfg, [
            (0, "t", "best-effort", 80.0),
            (1, "t", "best-effort", 80.0),
        ])
        assert plane.decide(0, now=0.0).action == "accept"
        plane.on_task_done(0, now=5.0)
        assert plane._records[0].status == "done"
        assert plane.inflight_us == pytest.approx(0.0)
        # Budget freed: the next job fits again.
        assert plane.decide(1, now=6.0).action == "accept"
        assert plane.audit(0.0) == []

    def test_cancelled_tasks_counted(self):
        plane = make_plane(ControlConfig(), [(0, "t", "best-effort", 10.0)])
        plane.decide(0, now=0.0)
        plane.on_task_cancelled(0, now=1.0)
        rec = plane._records[0]
        assert rec.n_cancelled == 1 and rec.n_left == 0

    def test_counters_roll_up(self):
        cfg = ControlConfig(
            default_quota=TenantQuota(rate=0.0, burst=1e-5), max_delays=0
        )
        plane = make_plane(cfg, [
            (0, "t", "burstable", 50.0),
            (1, "t", "guaranteed", 50.0),
        ])
        plane.decide(0, now=0.0)  # shed (max_delays=0)
        plane.decide(1, now=0.0)  # accept
        c = plane.counters()
        assert c["arrived"] == 2 and c["rejected"] == 1 and c["admitted"] == 1


class TestAudit:
    def test_clean_plane_audits_clean(self):
        plane = make_plane(ControlConfig(), [(0, "t", "burstable", 10.0)])
        plane.decide(0, now=0.0)
        assert plane.audit(0.0) == []

    def test_guaranteed_shed_is_flagged(self):
        plane = make_plane(ControlConfig(), [(0, "t", "guaranteed", 10.0)])
        rec = plane._records[0]
        rec.first_decided_us = 0.0
        plane.n_arrived = 1
        rec.status = "shed"  # corrupt on purpose: policy can't produce this
        assert any("guaranteed" in d for _, d in plane.audit(0.0))

    def test_inflight_gauge_divergence_flagged(self):
        plane = make_plane(ControlConfig(), [(0, "t", "burstable", 10.0)])
        plane.decide(0, now=0.0)
        plane.inflight_us += 5.0  # corrupt on purpose
        assert any("in-flight gauge" in d for _, d in plane.audit(0.0))

    def test_decision_leak_flagged(self):
        plane = make_plane(ControlConfig(), [(0, "t", "burstable", 10.0)])
        rec = plane._records[0]
        rec.first_decided_us = 0.0  # decided but no delay/admit/shed recorded
        plane.n_arrived = 1
        assert any("leaked" in d for _, d in plane.audit(0.0))
