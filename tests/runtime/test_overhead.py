"""Charged scheduler overheads: model validation, ledger arithmetic,
and the engine-level charging semantics."""

from __future__ import annotations

import pytest

from repro.api import SimConfig, SimSpec
from repro.apps.dense import cholesky_program
from repro.check.differential import fingerprint
from repro.runtime.overhead import OverheadLedger, SchedOverheadModel
from repro.utils.validation import ValidationError


class TestModelValidation:
    @pytest.mark.parametrize("field", ["push_us", "pop_us", "flush_us"])
    @pytest.mark.parametrize("bad", [-1.0, float("inf"), float("nan")])
    def test_bad_costs_rejected(self, field, bad):
        with pytest.raises(ValidationError, match=field):
            SchedOverheadModel(**{field: bad})

    def test_bad_batch_task_us_rejected(self):
        with pytest.raises(ValidationError, match="batch_task_us"):
            SchedOverheadModel(batch_task_us=-0.5)

    def test_batch_task_us_defaults_to_push_us(self):
        # Batching then costs exactly what per-event pushes would; only
        # an explicit discount makes coalescing win simulated time.
        assert SchedOverheadModel(push_us=3.0).batch_task_us == 3.0
        assert SchedOverheadModel(push_us=3.0, batch_task_us=0.5).batch_task_us == 0.5

    def test_is_free(self):
        assert SchedOverheadModel().is_free
        assert not SchedOverheadModel(pop_us=0.1).is_free
        # A zero push with a nonzero batch discount is still not free.
        assert not SchedOverheadModel(batch_task_us=1.0).is_free

    def test_calibrated_arithmetic(self):
        # 2 s over 1M decisions = 2 µs per decision, batch 4x cheaper.
        m = SchedOverheadModel.calibrated(2.0, 1_000_000, batch_speedup=4.0)
        assert m.push_us == pytest.approx(2.0)
        assert m.pop_us == pytest.approx(2.0)
        assert m.flush_us == pytest.approx(2.0)
        assert m.batch_task_us == pytest.approx(0.5)

    @pytest.mark.parametrize("kwargs", [
        dict(sched_core_s=-1.0, n_decisions=10),
        dict(sched_core_s=1.0, n_decisions=0),
        dict(sched_core_s=1.0, n_decisions=10, batch_speedup=0.5),
    ])
    def test_calibrated_validation(self, kwargs):
        with pytest.raises(ValidationError):
            SchedOverheadModel.calibrated(**kwargs)


class TestLedger:
    def test_charges_accumulate_and_serialize(self):
        led = OverheadLedger(SchedOverheadModel(push_us=2.0, pop_us=1.0))
        # Two pushes at the same instant queue behind one scheduler core.
        assert led.push(10.0) == 12.0
        assert led.push(10.0) == 14.0
        # A later event starts after the core frees.
        assert led.pop(13.0) == 15.0
        # An event past the backlog starts at its own clock.
        assert led.pop(100.0) == 101.0
        assert led.charged_us == pytest.approx(2.0 + 2.0 + 1.0 + 1.0)
        assert (led.n_push, led.n_pop, led.n_flush) == (2, 2, 0)

    def test_flush_pays_fixed_plus_per_task(self):
        led = OverheadLedger(
            SchedOverheadModel(flush_us=10.0, batch_task_us=0.5)
        )
        assert led.flush(0.0, 8) == pytest.approx(10.0 + 8 * 0.5)
        assert led.n_flush == 1
        assert led.n_flush_tasks == 8

    def test_stats_keys(self):
        led = OverheadLedger(SchedOverheadModel(push_us=1.0))
        led.push(0.0)
        stats = led.stats()
        assert stats["overhead_charged_us"] == 1.0
        assert stats["overhead_n_push"] == 1.0
        assert stats["overhead_n_pop"] == 0.0


class TestEngineCharging:
    def run(self, overhead=None, **cfg):
        spec = SimSpec(
            "small-hetero", "multiprio",
            config=SimConfig(overhead=overhead, record_level="tasks", **cfg),
        )
        return spec.run(cholesky_program(4, 384))

    def test_zero_cost_model_is_bit_identical(self):
        plain = self.run()
        gated = self.run(overhead=SchedOverheadModel())
        assert fingerprint(gated) == fingerprint(plain)

    def test_charged_costs_inflate_makespan(self):
        plain = self.run()
        charged = self.run(
            overhead=SchedOverheadModel(push_us=20.0, pop_us=20.0)
        )
        assert charged.makespan > plain.makespan

    def test_rt_stats_exposed_and_conserved(self):
        model = SchedOverheadModel(push_us=2.0, pop_us=1.0)
        res = self.run(overhead=model)
        stats = res.rt_stats
        assert stats is not None
        assert stats["overhead_n_push"] > 0
        assert stats["overhead_n_pop"] > 0
        assert stats["overhead_charged_us"] == pytest.approx(
            2.0 * stats["overhead_n_push"] + 1.0 * stats["overhead_n_pop"]
        )

    def test_no_model_means_no_rt_stats(self):
        assert self.run().rt_stats is None

    def test_batched_flushes_charge_flush_costs(self):
        model = SchedOverheadModel(push_us=2.0, flush_us=5.0,
                                   batch_task_us=0.5)
        res = self.run(overhead=model, batch_step=50.0)
        stats = res.rt_stats
        assert stats is not None
        assert stats["overhead_n_flush"] > 0
        assert stats["overhead_n_push"] == 0  # batching replaces pushes
        assert stats["overhead_n_flush_tasks"] == res.n_tasks

    def test_charged_run_validates_under_checker(self):
        res = self.run(
            overhead=SchedOverheadModel(push_us=2.0, pop_us=1.0),
            check_invariants=True,
        )
        assert res.makespan > 0
