"""Metrics tests: counters, time-weighted gauges, registry, collector."""

import pytest

from repro.obs.events import TaskEnd, TaskRetryScheduled, TransferEvent
from repro.obs.metrics import Counter, Gauge, MetricsCollector, MetricsRegistry
from repro.utils.validation import ValidationError


class TestCounter:
    def test_accumulates(self):
        c = Counter("x")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            Counter("x").inc(-1.0)


class TestGauge:
    def test_time_weighted_mean(self):
        g = Gauge("depth")
        g.set(2.0, 0.0)   # holds 2 over [0, 10)
        g.set(4.0, 10.0)  # holds 4 over [10, 20]
        assert g.time_weighted_mean(20.0) == pytest.approx(3.0)

    def test_mean_is_duration_weighted_not_sample_weighted(self):
        g = Gauge("depth")
        g.set(0.0, 0.0)
        for t in (1.0, 1.1, 1.2, 1.3):  # burst of samples, all value 10
            g.set(10.0, t)
        # value 0 held for 1us, value 10 for 9us
        assert g.time_weighted_mean(10.0) == pytest.approx(9.0)

    def test_time_backwards_rejected(self):
        g = Gauge("depth")
        g.set(1.0, 5.0)
        with pytest.raises(ValidationError):
            g.set(2.0, 4.0)

    def test_weighted_histogram(self):
        g = Gauge("depth")
        g.set(1.0, 0.0)
        g.set(5.0, 4.0)
        buckets = g.weighted_histogram([0.0, 2.0, 10.0], t_end=10.0)
        assert buckets == [pytest.approx(4.0), pytest.approx(6.0)]
        assert sum(buckets) == pytest.approx(10.0)

    def test_histogram_clamps_out_of_range(self):
        g = Gauge("depth")
        g.set(-3.0, 0.0)
        g.set(99.0, 1.0)
        buckets = g.weighted_histogram([0.0, 1.0, 2.0], t_end=2.0)
        assert buckets == [pytest.approx(1.0), pytest.approx(1.0)]

    def test_histogram_needs_two_edges(self):
        with pytest.raises(ValidationError):
            Gauge("depth").weighted_histogram([1.0])

    def test_empty_gauge_stats(self):
        g = Gauge("depth")
        assert g.last == 0.0
        assert g.time_weighted_mean() == 0.0
        assert g.stats()["n"] == 0.0

    def test_stats(self):
        g = Gauge("depth")
        g.set(1.0, 0.0)
        g.set(7.0, 2.0)
        s = g.stats(4.0)
        assert s["last"] == 7.0 and s["min"] == 1.0 and s["max"] == 7.0
        assert s["mean"] == pytest.approx((1.0 * 2 + 7.0 * 2) / 4)


class TestRegistry:
    def test_create_or_get(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")

    def test_snapshot_flattening(self):
        reg = MetricsRegistry()
        reg.counter("n").inc(3)
        reg.gauge("d").set(2.0, 0.0)
        snap = reg.snapshot(t_end=1.0, derived={"makespan_us": 1.0})
        flat = snap.as_dict()
        assert flat["n"] == 3.0
        assert flat["d.mean"] == pytest.approx(2.0)
        assert flat["makespan_us"] == 1.0

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("n").inc()
        reg.reset()
        assert reg.snapshot().counters == {}


class TestCollector:
    def _collector(self):
        reg = MetricsRegistry()
        return reg, MetricsCollector(reg)

    def test_task_end_accounting(self):
        reg, col = self._collector()
        col.on_event(TaskEnd(t=10.0, tid=0, type_name="gemm", wid=0, node=0,
                             pop_time=0.0, start=2.0, end=10.0))
        snap = reg.snapshot()
        assert snap.counters["tasks_completed"] == 1.0
        assert snap.counters["exec_us.gemm"] == pytest.approx(8.0)

    def test_transfer_and_retry_counters(self):
        reg, col = self._collector()
        col.on_event(TransferEvent(t=0.0, hid=1, src=0, dst=2, nbytes=100,
                                   start=0.0, end=1.0))
        col.on_event(TaskRetryScheduled(t=5.0, tid=3, attempt=1))
        snap = reg.snapshot()
        assert snap.counters["link_bytes.0->2"] == 100.0
        assert snap.counters["transfers"] == 1.0
        assert snap.counters["retries"] == 1.0
