"""Exporters: JSONL, Chrome-trace/Perfetto JSON, and summary reports.

The JSONL format is the subsystem's interchange format — one event dict
per line, round-trippable through :func:`events_from_jsonl`. The Chrome
trace format loads directly into Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``: one track per worker, one per interconnect link,
counter tracks for every retained gauge, and instant markers for
scheduler decisions and worker deaths.

Everything here consumes the *event stream only* (plus optional
worker/task metadata for labels and DAG-aware critical paths), so any
analysis can be regenerated offline from a dumped ``events.jsonl``.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.obs.events import (
    DecisionEvent,
    Event,
    TaskEnd,
    TransferEvent,
    WorkerDeath,
    event_from_dict,
)
from repro.runtime.trace import TaskRecord, Trace, TransferRecord
from repro.runtime.worker import Worker

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.metrics import MetricsRegistry
    from repro.runtime.task import Task


# -- JSONL -------------------------------------------------------------------


def events_to_jsonl(events: Iterable[Event]) -> str:
    """Serialize events to newline-delimited JSON (one dict per line)."""
    lines = [json.dumps(ev.to_dict(), sort_keys=True) for ev in events]
    return "\n".join(lines) + ("\n" if lines else "")


def events_from_jsonl(text: str) -> list[Event]:
    """Parse a JSONL dump back into event objects (inverse of export)."""
    events: list[Event] = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            events.append(event_from_dict(json.loads(line)))
    return events


# -- Chrome trace / Perfetto --------------------------------------------------

_PID_WORKERS = 0
_PID_LINKS = 1
_PID_COUNTERS = 2


def events_to_chrome(
    events: Sequence[Event],
    *,
    workers: Sequence[Worker] | None = None,
    metrics: "MetricsRegistry | None" = None,
) -> str:
    """Serialize an event stream to Chrome-trace JSON.

    Tracks: one per worker (task executions and residual data waits,
    decision/death instants), one per physical link (transfers, prefetch
    traffic flagged in ``args``), and one counter track per gauge of the
    optional ``metrics`` registry (heap depths and friends).
    """
    out: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID_WORKERS,
            "tid": 0,
            "args": {"name": "workers"},
        },
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID_LINKS,
            "tid": 0,
            "args": {"name": "links"},
        },
    ]
    worker_names = {w.wid: f"{w.name} ({w.arch})" for w in workers or ()}
    seen_wids = {
        ev.wid  # type: ignore[attr-defined]
        for ev in events
        if isinstance(ev, (TaskEnd, DecisionEvent, WorkerDeath)) and ev.wid >= 0  # type: ignore[attr-defined]
    }
    for wid in sorted(set(worker_names) | seen_wids):
        out.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID_WORKERS,
                "tid": wid,
                "args": {"name": worker_names.get(wid, f"worker{wid}")},
            }
        )
    link_tids: dict[tuple[int, int], int] = {}
    for ev in events:
        if isinstance(ev, TransferEvent):
            link_tids.setdefault((ev.src, ev.dst), len(link_tids))
    for (src, dst), tid in sorted(link_tids.items(), key=lambda kv: kv[1]):
        out.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID_LINKS,
                "tid": tid,
                "args": {"name": f"link {src}->{dst}"},
            }
        )

    for ev in events:
        if isinstance(ev, TaskEnd):
            if ev.start - ev.pop_time > 0:
                out.append(
                    {
                        "name": "data wait",
                        "cat": "transfer",
                        "ph": "X",
                        "pid": _PID_WORKERS,
                        "tid": ev.wid,
                        "ts": ev.pop_time,
                        "dur": ev.start - ev.pop_time,
                        "args": {"task": ev.tid},
                    }
                )
            out.append(
                {
                    "name": ev.type_name,
                    "cat": "task",
                    "ph": "X",
                    "pid": _PID_WORKERS,
                    "tid": ev.wid,
                    "ts": ev.start,
                    "dur": ev.end - ev.start,
                    "args": {"task": ev.tid, "node": ev.node},
                }
            )
        elif isinstance(ev, TransferEvent):
            out.append(
                {
                    "name": f"h{ev.hid}",
                    "cat": "transfer",
                    "ph": "X",
                    "pid": _PID_LINKS,
                    "tid": link_tids[(ev.src, ev.dst)],
                    "ts": ev.start,
                    "dur": max(ev.end - ev.start, 0.001),
                    "args": {"bytes": ev.nbytes, "prefetch": ev.prefetch},
                }
            )
        elif isinstance(ev, DecisionEvent):
            args = {
                k: v
                for k, v in ev.to_dict().items()
                if k not in ("kind", "t", "wid") and v not in (None, (), [], "")
            }
            out.append(
                {
                    "name": f"{ev.scheduler}:{ev.action}",
                    "cat": "decision",
                    "ph": "i",
                    "s": "t",
                    "pid": _PID_WORKERS,
                    "tid": max(ev.wid, 0),
                    "ts": ev.t,
                    "args": args,
                }
            )
        elif isinstance(ev, WorkerDeath):
            out.append(
                {
                    "name": f"death:{ev.name}",
                    "cat": "fault",
                    "ph": "i",
                    "s": "g",
                    "pid": _PID_WORKERS,
                    "tid": ev.wid,
                    "ts": ev.t,
                    "args": {"recovered": ev.n_recovered},
                }
            )
    if metrics is not None:
        for name, gauge in sorted(metrics.gauges().items()):
            for t, value in gauge.samples:
                out.append(
                    {
                        "name": name,
                        "ph": "C",
                        "pid": _PID_COUNTERS,
                        "ts": t,
                        "args": {"value": value},
                    }
                )
    return json.dumps({"traceEvents": out, "displayTimeUnit": "ms"})


# -- event-stream analysis ----------------------------------------------------


def trace_from_events(events: Sequence[Event], workers: Sequence[Worker]) -> Trace:
    """Build the :class:`~repro.runtime.trace.Trace` of an event stream.

    Only ``task_end``, ``transfer`` and ``worker_death`` events are
    needed, so a JSONL dump is enough to regenerate every Trace analysis
    (Gantt, idle fractions, practical critical path) without re-running
    the simulation.
    """
    trace = Trace(list(workers))
    for ev in events:
        if isinstance(ev, TaskEnd):
            trace.task_records.append(TaskRecord(
                ev.tid, ev.type_name, ev.wid, ev.node, ev.pop_time, ev.start, ev.end
            ))
        elif isinstance(ev, TransferEvent):
            trace.transfer_records.append(TransferRecord(
                ev.hid, ev.src, ev.dst, ev.nbytes, ev.start, ev.end
            ))
        elif isinstance(ev, WorkerDeath):
            trace.death_us[ev.wid] = ev.t
    return trace


def decision_counts(events: Sequence[Event]) -> dict[str, int]:
    """Decision events tallied by action (``pop``/``skip``/``evict``/...)."""
    counts: dict[str, int] = {}
    for ev in events:
        if isinstance(ev, DecisionEvent):
            counts[ev.action] = counts.get(ev.action, 0) + 1
    return counts


def summary_report(
    events: Sequence[Event],
    *,
    workers: Sequence[Worker],
    tasks: "Sequence[Task] | None" = None,
    top_types: int = 6,
) -> str:
    """Human-readable run summary with the critical path highlighted.

    Sections: headline (makespan, tasks, transferred bytes), per-worker
    busy/wait/idle table, the heaviest task types, decision counts, and
    — when the task DAG is supplied — the practical critical path with
    each link's share of the makespan.
    """
    trace = trace_from_events(events, workers)
    span = trace.makespan()
    n_tasks = len(trace.task_records)
    moved = sum(r.nbytes for r in trace.transfer_records)
    lines = [
        f"makespan {span:.1f} us   tasks {n_tasks}   "
        f"transferred {moved / 2**20:.1f} MiB over {len(trace.transfer_records)} transfers"
    ]
    lines.append("")
    lines.append(f"{'worker':>10} {'arch':>6} {'tasks':>6} {'busy%':>7} {'wait%':>7} {'idle%':>7}")
    for row in trace.per_worker_summary():
        busy_pct = 100.0 * float(row["busy_us"]) / span if span > 0 else 0.0
        wait_pct = 100.0 * float(row["wait_us"]) / span if span > 0 else 0.0
        lines.append(
            f"{row['worker']:>10} {row['arch']:>6} {row['n_tasks']:>6} "
            f"{busy_pct:>6.1f}% {wait_pct:>6.1f}% {float(row['idle_frac']) * 100:>6.1f}%"
        )
    exec_by_type: dict[str, float] = {}
    for rec in trace.task_records:
        exec_by_type[rec.type_name] = exec_by_type.get(rec.type_name, 0.0) + rec.exec_time
    if exec_by_type:
        lines.append("")
        lines.append("heaviest task types (total exec time):")
        ranked = sorted(exec_by_type.items(), key=lambda kv: -kv[1])[:top_types]
        for type_name, total in ranked:
            lines.append(f"  {type_name:>12} {total:>12.1f} us")
    counts = decision_counts(events)
    if counts:
        lines.append("")
        lines.append(
            "scheduler decisions: "
            + ", ".join(f"{action}={n}" for action, n in sorted(counts.items()))
        )
    if tasks is not None and trace.task_records:
        chain = trace.practical_critical_path(list(tasks))
        on_chain = sum(r.exec_time for r in chain)
        lines.append("")
        lines.append(
            f"practical critical path: {len(chain)} tasks, "
            f"{100.0 * on_chain / span if span > 0 else 0.0:.1f}% of the makespan executing"
        )
        for rec in chain:
            lines.append(
                f"  * {rec.type_name}#{rec.tid:<5} worker {rec.worker:<3} "
                f"[{rec.start:>10.1f} -> {rec.end:>10.1f}]"
            )
    return "\n".join(lines)
