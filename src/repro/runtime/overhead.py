"""Charged scheduler-decision overheads.

The engine's default contract is that scheduling is free: ``push``,
``pop`` and batch flushes take zero simulated time. Production runtimes
pay for every decision on a real core, and batch schedulers exist
precisely because one bulk decision amortizes that cost over many tasks.
A :class:`SchedOverheadModel` makes that trade-off simulable: the engine
charges each decision to a single virtual *scheduler core* and delays
popped tasks until their decision has been paid for, so batching's
coalescing shows up as a *simulated*-time win rather than only a
wall-clock one.

Semantics (see ``DESIGN.md`` §5h):

* one scheduler core — decisions serialize on a ``sched_free`` clock
  that never runs ahead of more than one decision at a time;
* ``push_us`` per per-event reveal, ``pop_us`` per successful pop
  (empty polls are free: the engine's worker wake-ups poll far more
  often than a real runtime would), ``flush_us + n·batch_task_us`` per
  batch flush of ``n`` tasks;
* a popped task's data-arrival time is clamped to the end of its pop
  decision, so a congested scheduler core visibly delays execution;
* an all-zero model is bit-identical to ``overhead=None`` (the
  ``rt.overhead_noop`` differential enforces this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.utils.validation import ValidationError


@dataclass(frozen=True)
class SchedOverheadModel:
    """Per-decision scheduling costs, in µs of simulated time.

    ``batch_task_us`` defaults to ``push_us`` — batching then costs
    exactly what per-event pushes would, and only a genuine bulk
    discount (``batch_task_us < push_us``, e.g. from a measured bulk
    ``push_batch`` speedup) makes coalescing win simulated time.
    """

    push_us: float = 0.0
    pop_us: float = 0.0
    flush_us: float = 0.0
    batch_task_us: float | None = None

    def __post_init__(self) -> None:
        for name in ("push_us", "pop_us", "flush_us"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0.0):
                raise ValidationError(
                    f"SchedOverheadModel.{name} must be a finite non-negative "
                    f"µs cost, got {v!r}"
                )
        if self.batch_task_us is None:
            object.__setattr__(self, "batch_task_us", float(self.push_us))
        elif not (
            isinstance(self.batch_task_us, (int, float))
            and math.isfinite(self.batch_task_us)
            and self.batch_task_us >= 0.0
        ):
            raise ValidationError(
                f"SchedOverheadModel.batch_task_us must be a finite "
                f"non-negative µs cost or None, got {self.batch_task_us!r}"
            )

    @property
    def is_free(self) -> bool:
        """True when every cost is zero (the bit-identity no-op)."""
        return (
            self.push_us == 0.0
            and self.pop_us == 0.0
            and self.flush_us == 0.0
            and self.batch_task_us == 0.0
        )

    @classmethod
    def calibrated(
        cls,
        sched_core_s: float,
        n_decisions: int,
        *,
        batch_speedup: float = 1.0,
    ) -> "SchedOverheadModel":
        """Build a model from a measured scheduler-core wall time.

        ``sched_core_s`` over ``n_decisions`` (e.g. from
        ``benchmarks/bench_engine.py`` sched-core seconds and the run's
        push+pop count) gives the mean per-decision cost; pushes and
        pops are charged that cost symmetrically. ``batch_speedup`` is
        the measured bulk ``push_batch`` advantage: per-task batch cost
        is the per-decision cost divided by it (a flush still pays one
        full decision as its fixed cost).
        """
        if not (math.isfinite(sched_core_s) and sched_core_s >= 0.0):
            raise ValidationError(
                f"sched_core_s must be finite and >= 0, got {sched_core_s!r}"
            )
        if n_decisions < 1:
            raise ValidationError(f"n_decisions must be >= 1, got {n_decisions}")
        if not (math.isfinite(batch_speedup) and batch_speedup >= 1.0):
            raise ValidationError(
                f"batch_speedup must be finite and >= 1, got {batch_speedup!r}"
            )
        per_decision_us = sched_core_s / n_decisions * 1e6
        return cls(
            push_us=per_decision_us,
            pop_us=per_decision_us,
            flush_us=per_decision_us,
            batch_task_us=per_decision_us / batch_speedup,
        )


class OverheadLedger:
    """Per-run charging state for one :class:`SchedOverheadModel`.

    A run hook of the engine (``DESIGN.md`` §4) at the decision points:
    :meth:`push`, :meth:`pop` and :meth:`flush` charge one decision
    each, plus :meth:`stats` and :meth:`audit`. The invariant checker's
    ``rt`` family calls :meth:`audit`: ``charged_us`` must equal the
    counter-weighted sum of the model's costs, and ``sched_free`` may
    never retreat.
    """

    __slots__ = (
        "model", "sched_free", "charged_us",
        "n_push", "n_pop", "n_flush", "n_flush_tasks", "_audit_floor",
    )

    def __init__(self, model: SchedOverheadModel) -> None:
        self.model = model
        self.sched_free = 0.0
        self.charged_us = 0.0
        self.n_push = 0
        self.n_pop = 0
        self.n_flush = 0
        self.n_flush_tasks = 0
        # Scheduler-core clock as of the last audit (never retreats).
        self._audit_floor = 0.0

    def _charge(self, now: float, cost: float) -> float:
        start = self.sched_free if self.sched_free > now else now
        self.sched_free = start + cost
        self.charged_us += cost
        return self.sched_free

    def push(self, now: float) -> float:
        """Charge one per-event reveal; returns the decision end time."""
        self.n_push += 1
        return self._charge(now, self.model.push_us)

    def pop(self, now: float) -> float:
        """Charge one successful pop; returns the decision end time."""
        self.n_pop += 1
        return self._charge(now, self.model.pop_us)

    def flush(self, now: float, n_tasks: int) -> float:
        """Charge one batch flush of ``n_tasks``; returns its end time."""
        self.n_flush += 1
        self.n_flush_tasks += n_tasks
        return self._charge(
            now, self.model.flush_us + n_tasks * self.model.batch_task_us
        )

    def stats(self) -> dict[str, float]:
        """Counters for :class:`~repro.runtime.engine.SimResult.rt_stats`."""
        return {
            "overhead_charged_us": self.charged_us,
            "overhead_n_push": float(self.n_push),
            "overhead_n_pop": float(self.n_pop),
            "overhead_n_flush": float(self.n_flush),
            "overhead_n_flush_tasks": float(self.n_flush_tasks),
        }

    def audit(self, now: float) -> list[tuple[str, str]]:
        """``rt`` violations: a charge no decision counter explains, or a
        scheduler-core clock that moved backward since the last audit."""
        out = []
        m = self.model
        expected = (
            m.push_us * self.n_push
            + m.pop_us * self.n_pop
            + m.flush_us * self.n_flush
            + m.batch_task_us * self.n_flush_tasks
        )
        if abs(expected - self.charged_us) > 1e-6 + 1e-9 * abs(expected):
            out.append((
                "rt",
                f"overhead charge leaked: ledger says {self.charged_us}us "
                f"but counters ({self.n_push} push, {self.n_pop} pop, "
                f"{self.n_flush} flush over {self.n_flush_tasks} tasks) "
                f"account for {expected}us",
            ))
        if self.sched_free < self._audit_floor:
            out.append((
                "rt",
                f"scheduler-core clock moved backward: "
                f"{self._audit_floor} -> {self.sched_free}",
            ))
        else:
            self._audit_floor = self.sched_free
        return out
