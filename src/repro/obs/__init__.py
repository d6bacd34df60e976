"""repro.obs — the observability subsystem.

A structured, zero-cost-when-disabled instrumentation layer over the
runtime engine and every scheduler:

* :mod:`repro.obs.events` — the event taxonomy (task lifecycle,
  transfers with real source nodes, faults, scheduler decision
  provenance) and the :class:`~repro.obs.events.RecordLevel` flag;
* :mod:`repro.obs.bus` — the publish/subscribe
  :class:`~repro.obs.bus.EventBus` and the per-run
  :class:`~repro.obs.bus.Observability` façade the engine binds;
* :mod:`repro.obs.metrics` — counters, virtual-time-weighted gauges and
  the snapshot exposed on :class:`~repro.runtime.engine.SimResult`;
* :mod:`repro.obs.export` — JSONL and Chrome-trace/Perfetto exporters
  plus event-stream analyses (:class:`~repro.runtime.trace.Trace`
  views, decision counts, critical-path summary reports).

The event stream is the only record of what ran: the engine keeps no
trace of its own, and :func:`~repro.obs.export.trace_from_events` is
the one way to build a :class:`~repro.runtime.trace.Trace` (Gantt,
per-worker idle fractions, practical critical path).

Quick tour::

    from repro.runtime.engine import Simulator
    from repro.obs import events_to_chrome

    sim = Simulator(platform, scheduler, perfmodel,
                    record_level="decisions")
    res = sim.run(program)
    open("trace.json", "w").write(
        events_to_chrome(res.events, workers=platform.workers,
                         metrics=sim.obs.metrics))
"""

from repro.obs.bus import EventBus, Observability
from repro.obs.events import (
    DecisionEvent,
    Event,
    RecordLevel,
    TaskEnd,
    TaskFault,
    TaskPop,
    TaskReady,
    TaskRetryScheduled,
    TaskStage,
    TaskStart,
    TaskSubmit,
    TransferEvent,
    WorkerDeath,
    event_from_dict,
)
from repro.obs.export import (
    decision_counts,
    events_from_jsonl,
    events_to_chrome,
    events_to_jsonl,
    summary_report,
    trace_from_events,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsCollector,
    MetricsRegistry,
    MetricsSnapshot,
)

__all__ = [
    "Event",
    "RecordLevel",
    "TaskSubmit",
    "TaskReady",
    "TaskPop",
    "TaskStage",
    "TaskStart",
    "TaskEnd",
    "TaskFault",
    "TaskRetryScheduled",
    "WorkerDeath",
    "TransferEvent",
    "DecisionEvent",
    "event_from_dict",
    "EventBus",
    "Observability",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "MetricsCollector",
    "MetricsSnapshot",
    "events_to_jsonl",
    "events_from_jsonl",
    "events_to_chrome",
    "trace_from_events",
    "decision_counts",
    "summary_report",
]
