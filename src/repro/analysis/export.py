"""Trace export: a flat per-task CSV table for pandas/R post-processing.

The Chrome tracing / Perfetto format comes from the event stream:
:func:`repro.obs.export.events_to_chrome`.
"""

from __future__ import annotations

from repro.runtime.trace import Trace


def to_csv(trace: Trace) -> str:
    """Serialize the per-task records as CSV (header + one row each)."""
    lines = ["tid,type,worker,node,pop_time_us,start_us,end_us,exec_us,wait_us"]
    for rec in sorted(trace.task_records, key=lambda r: r.start):
        lines.append(
            f"{rec.tid},{rec.type_name},{rec.worker},{rec.node},"
            f"{rec.pop_time:.3f},{rec.start:.3f},{rec.end:.3f},"
            f"{rec.exec_time:.3f},{rec.wait_time:.3f}"
        )
    return "\n".join(lines) + "\n"
