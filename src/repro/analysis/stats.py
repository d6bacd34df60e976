"""Aggregate statistics over experiment results."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.harness import ExperimentResult


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean (the standard aggregate for speedup ratios)."""
    if not values:
        raise ValueError("geometric_mean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric_mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def load_balance_index(busy_times: Sequence[float]) -> float:
    """Mean/max busy-time ratio across workers: 1.0 = perfect balance."""
    if not busy_times:
        return 1.0
    peak = max(busy_times)
    if peak <= 0:
        return 1.0
    return sum(busy_times) / len(busy_times) / peak


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile at fraction ``q`` in [0, 1], NaN-free.

    An empty population returns 0.0 (not NaN, not an exception), so
    degenerate groups — e.g. the completed-job set of an all-rejected
    overload run — always report well-defined metrics. A singleton
    returns its only element at any ``q``.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"percentile fraction must be in [0, 1], got {q}")
    ordered = sorted(values)
    if not ordered:
        return 0.0
    idx = min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))
    return ordered[idx]


def jain_fairness_index(values: Sequence[float]) -> float:
    """Jain's fairness index ``(Σx)² / (n·Σx²)`` over per-job metrics.

    1.0 means every job got an identical share (e.g. equal slowdowns);
    the index degrades toward ``1/n`` as one job monopolizes the
    resource. Values must be non-negative; an all-zero (or empty)
    population is perfectly fair by convention.
    """
    if any(v < 0 for v in values):
        raise ValueError("jain_fairness_index requires non-negative values")
    total_sq = sum(v * v for v in values)
    if not values or total_sq <= 0:
        return 1.0
    total = sum(values)
    return total * total / (len(values) * total_sq)


def summarize_results(
    rows: "Iterable[ExperimentResult]",
) -> dict[str, dict[str, float]]:
    """Per-scheduler aggregates: mean makespan, mean gflops, run count."""
    grouped: dict[str, list[ExperimentResult]] = {}
    for row in rows:
        grouped.setdefault(row.scheduler, []).append(row)
    out: dict[str, dict[str, float]] = {}
    for scheduler, mine in grouped.items():
        out[scheduler] = {
            "runs": float(len(mine)),
            "mean_makespan_us": sum(r.makespan_us for r in mine) / len(mine),
            "mean_gflops": sum(r.gflops for r in mine) / len(mine),
            "total_bytes": float(sum(r.bytes_transferred for r in mine)),
        }
    return out
