"""The structured event bus and the per-run observability façade.

:class:`EventBus` is a synchronous publish/subscribe dispatcher keyed by
event kind. :class:`Observability` bundles one bus, one
:class:`~repro.obs.metrics.MetricsRegistry` and an in-memory event sink;
the engine holds ``None`` instead of an instance when observability is
off, so the disabled path costs a single identity check per emit point
and the simulation stays bit-identical to a build without the subsystem.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.obs.events import Event, RecordLevel
from repro.obs.metrics import MetricsCollector, MetricsRegistry, MetricsSnapshot

Subscriber = Callable[[Event], None]


class EventBus:
    """Synchronous pub/sub: subscribers run inline, in subscription order."""

    def __init__(self) -> None:
        self._global: list[Subscriber] = []
        self._by_kind: dict[str, list[Subscriber]] = {}

    def subscribe(self, fn: Subscriber, kinds: Iterable[str] | None = None) -> None:
        """Register ``fn`` for every event, or only for ``kinds``."""
        if kinds is None:
            self._global.append(fn)
            return
        for kind in kinds:
            self._by_kind.setdefault(kind, []).append(fn)

    def unsubscribe(self, fn: Subscriber) -> None:
        """Remove every registration of ``fn`` (no-op when absent)."""
        if fn in self._global:
            self._global.remove(fn)
        for subs in self._by_kind.values():
            if fn in subs:
                subs.remove(fn)

    def emit(self, event: Event) -> None:
        """Deliver ``event`` to kind-specific then global subscribers."""
        for fn in self._by_kind.get(event.kind, ()):
            fn(event)
        for fn in self._global:
            fn(event)


class Observability:
    """One run's worth of observability: bus + metrics + event sink.

    Parameters
    ----------
    level:
        A :class:`~repro.obs.events.RecordLevel` (or its name). ``OFF``
        is legal but pointless — the engine simply keeps ``None``.
    keep_events:
        Retain every emitted event in :attr:`events` (needed by the
        exporters; turn off for metrics-only monitoring of huge runs).
    """

    def __init__(
        self,
        level: RecordLevel | str | int = RecordLevel.TASKS,
        *,
        keep_events: bool = True,
    ) -> None:
        self.level = RecordLevel.parse(level)
        self.bus = EventBus()
        self.metrics = MetricsRegistry()
        self.events: list[Event] = []
        self.keep_events = keep_events
        self.bus.subscribe(MetricsCollector(self.metrics).on_event)
        if keep_events:
            self.bus.subscribe(self.events.append)

    # -- level predicates ----------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether anything at all is recorded."""
        return self.level >= RecordLevel.TASKS

    @property
    def decisions(self) -> bool:
        """Whether scheduler decision provenance is recorded."""
        return self.level >= RecordLevel.DECISIONS

    # -- lifecycle -----------------------------------------------------------

    def begin_run(self) -> None:
        """Reset per-run state."""
        self.events.clear()
        self.metrics.reset()

    def emit(self, event: Event) -> None:
        """Publish one event on the bus."""
        self.bus.emit(event)

    def snapshot(
        self, makespan: float, idle_by_arch: dict[str, float]
    ) -> MetricsSnapshot:
        """Freeze the metrics with the engine's makespan and its
        per-architecture idle fractions (``SimResult.idle_frac_by_arch``)."""
        derived = {"makespan_us": makespan}
        for arch, frac in sorted(idle_by_arch.items()):
            derived[f"idle_frac.{arch}"] = frac
        return self.metrics.snapshot(t_end=makespan, derived=derived)
