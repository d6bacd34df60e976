"""Metrics registry: counters, gauges and virtual-time-weighted stats.

A :class:`Counter` accumulates monotonically (retries, bytes per link);
a :class:`Gauge` tracks a piecewise-constant quantity over *virtual*
time (a heap's depth, a worker's busy flag) and integrates it, so its
mean, extrema and histogram are weighted by how long each value held —
not by how often it was sampled. The :class:`MetricsRegistry` owns both
and freezes into an immutable :class:`MetricsSnapshot` exposed on
:class:`~repro.runtime.engine.SimResult`.

The :class:`MetricsCollector` derives the standard engine metrics purely
from the event stream — the same events the exporters consume — so any
analysis done on a live run can be regenerated offline from a JSONL
dump.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.utils.validation import ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.events import Event


class Counter:
    """A monotonically accumulating metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValidationError(f"counter {self.name}: negative increment {amount}")
        self.value += amount


class Gauge:
    """A piecewise-constant quantity integrated over virtual time.

    ``set(value, t)`` states that the gauge held its previous value from
    the previous sample time up to ``t``, then switched to ``value``.
    Samples are retained, so exporters can render counter tracks and
    histograms can weight each value by the time it was held.
    """

    __slots__ = ("name", "samples", "_integral", "_t0", "_min", "_max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.samples: list[tuple[float, float]] = []
        self._integral = 0.0
        self._t0: float | None = None
        self._min = float("inf")
        self._max = float("-inf")

    @property
    def last(self) -> float:
        """Most recent value (0.0 before the first sample)."""
        return self.samples[-1][1] if self.samples else 0.0

    def set(self, value: float, t: float) -> None:
        """Record that the gauge switched to ``value`` at time ``t``."""
        if self.samples:
            last_t, last_v = self.samples[-1]
            if t < last_t:
                raise ValidationError(
                    f"gauge {self.name}: time went backwards ({t} < {last_t})"
                )
            self._integral += last_v * (t - last_t)
        else:
            self._t0 = t
        self.samples.append((t, value))
        self._min = min(self._min, value)
        self._max = max(self._max, value)

    def time_weighted_mean(self, t_end: float | None = None) -> float:
        """Mean value over [first sample, ``t_end``], weighted by duration."""
        if not self.samples:
            return 0.0
        last_t, last_v = self.samples[-1]
        if t_end is None or t_end < last_t:
            t_end = last_t
        span = t_end - self.samples[0][0]
        if span <= 0:
            return last_v
        return (self._integral + last_v * (t_end - last_t)) / span

    def weighted_histogram(
        self, edges: Sequence[float], t_end: float | None = None
    ) -> list[float]:
        """Time spent in each ``[edges[i], edges[i+1])`` bucket.

        Returns ``len(edges) - 1`` durations; values outside the edges
        are clamped into the first/last bucket so the durations always
        sum to the observed span.
        """
        if len(edges) < 2:
            raise ValidationError("weighted_histogram needs at least two edges")
        buckets = [0.0] * (len(edges) - 1)
        if not self.samples:
            return buckets
        last_t, last_v = self.samples[-1]
        if t_end is None or t_end < last_t:
            t_end = last_t
        series = self.samples + [(t_end, last_v)]
        for (t0, value), (t1, _) in zip(series, series[1:]):
            dt = t1 - t0
            if dt <= 0:
                continue
            idx = 0
            for i in range(len(buckets)):
                if value >= edges[i]:
                    idx = i
            buckets[idx] += dt
        return buckets

    def stats(self, t_end: float | None = None) -> dict[str, float]:
        """Summary row: last/mean/min/max/sample count."""
        if not self.samples:
            return {"last": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0, "n": 0.0}
        return {
            "last": self.last,
            "mean": self.time_weighted_mean(t_end),
            "min": self._min,
            "max": self._max,
            "n": float(len(self.samples)),
        }


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable end-of-run view of every counter and gauge.

    ``derived`` holds the engine's end-of-run figures: the makespan and
    its per-architecture idle fractions (``idle_frac.<arch>``).
    """

    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, dict[str, float]] = field(default_factory=dict)
    derived: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict[str, float]:
        """One flat mapping for reporting tables (gauges expose means)."""
        flat = dict(self.counters)
        for name, stats in self.gauges.items():
            flat[f"{name}.mean"] = stats["mean"]
            flat[f"{name}.max"] = stats["max"]
        flat.update(self.derived)
        return flat


class MetricsRegistry:
    """Create-or-get store of named counters and gauges."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created on first use."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``, created on first use."""
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def gauges(self) -> dict[str, Gauge]:
        """Live gauge objects (exporters read their sample series)."""
        return dict(self._gauges)

    def reset(self) -> None:
        """Drop every metric (start of a new run)."""
        self._counters.clear()
        self._gauges.clear()

    def snapshot(
        self, t_end: float | None = None, derived: dict[str, float] | None = None
    ) -> MetricsSnapshot:
        """Freeze the registry into a :class:`MetricsSnapshot`."""
        return MetricsSnapshot(
            counters={name: c.value for name, c in sorted(self._counters.items())},
            gauges={name: g.stats(t_end) for name, g in sorted(self._gauges.items())},
            derived=dict(derived or {}),
        )


class MetricsCollector:
    """Event-stream subscriber deriving the standard engine counters.

    Counts completions, retries, faults and decisions and accumulates
    per-link transfer bytes, purely from events.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry

    def on_event(self, event: "Event") -> None:
        """Bus subscription entry point."""
        kind = event.kind
        reg = self.registry
        if kind == "task_end":
            reg.counter("tasks_completed").inc()
            reg.counter(f"exec_us.{event.type_name}").inc(event.end - event.start)  # type: ignore[attr-defined]
        elif kind == "transfer":
            reg.counter(f"link_bytes.{event.src}->{event.dst}").inc(event.nbytes)  # type: ignore[attr-defined]
            reg.counter("transfers").inc()
        elif kind == "task_retry":
            reg.counter("retries").inc()
        elif kind == "task_fault":
            reg.counter("task_faults").inc()
            reg.counter("wasted_exec_us").inc(event.wasted_us)  # type: ignore[attr-defined]
        elif kind == "worker_death":
            reg.counter("worker_deaths").inc()
        elif kind == "decision":
            reg.counter(f"decisions.{event.action}").inc()  # type: ignore[attr-defined]
