"""Per-tenant / per-class SLO reporting for controlled stream runs.

:class:`ControlResult` is attached to
:class:`~repro.workload.results.StreamResult` by
:meth:`repro.api.SimSpec.run_stream` when a control plane was active. It
carries one typed :class:`JobOutcome` per job of the stream — completed,
rejected (shed) or evicted — plus rollups: p99 slowdown, SLO
(deadline-proxy) miss rate, rejection and eviction rates, per tenant
and per priority class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable

from repro.analysis.stats import percentile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.control.plane import ControlPlane
    from repro.workload.results import JobResult


@dataclass(frozen=True)
class JobOutcome:
    """Final control-plane fate of one job.

    ``status`` is ``"completed"``, ``"rejected"`` (shed at admission) or
    ``"evicted"`` (admitted, then preempted under overload — its
    already-running tasks drained, its unstarted tasks were cancelled).
    ``latency_us``/``slowdown`` are ``None`` unless the job completed
    (and, for slowdown, isolated baselines were run).
    """

    jid: int
    name: str
    tenant: str
    qos: str
    status: str
    arrival_us: float
    cost_us: float
    n_tasks: int
    n_delays: int = 0
    n_cancelled_tasks: int = 0
    shed_reason: str = ""
    admitted_us: float | None = None
    settled_us: float | None = None
    latency_us: float | None = None
    slowdown: float | None = None

    def as_dict(self) -> dict[str, Any]:
        """Flat JSON-ready mapping."""
        return {
            "jid": self.jid,
            "name": self.name,
            "tenant": self.tenant,
            "qos": self.qos,
            "status": self.status,
            "arrival_us": self.arrival_us,
            "cost_us": self.cost_us,
            "n_tasks": self.n_tasks,
            "n_delays": self.n_delays,
            "n_cancelled_tasks": self.n_cancelled_tasks,
            "shed_reason": self.shed_reason,
            "admitted_us": self.admitted_us,
            "settled_us": self.settled_us,
            "latency_us": self.latency_us,
            "slowdown": self.slowdown,
        }


_STATUS_OF_RECORD = {"done": "completed", "shed": "rejected", "evicted": "evicted"}


def _rollup(outcomes: list[JobOutcome], slo_slowdown: float) -> dict[str, float]:
    """Aggregate one group of outcomes into SLO metrics.

    Every metric is defined (and finite) for any group, including empty
    and all-rejected ones. The SLO miss rate counts, over all arrived
    jobs, those that were rejected, evicted, or completed slower than
    ``slo_slowdown`` × their isolated run.
    """
    n = len(outcomes)
    completed = [o for o in outcomes if o.status == "completed"]
    rejected = sum(1 for o in outcomes if o.status == "rejected")
    evicted = sum(1 for o in outcomes if o.status == "evicted")
    latencies = [o.latency_us for o in completed if o.latency_us is not None]
    slowdowns = [o.slowdown for o in completed if o.slowdown is not None]
    misses = rejected + evicted + sum(1 for s in slowdowns if s > slo_slowdown)
    return {
        "arrived": float(n),
        "completed": float(len(completed)),
        "rejected": float(rejected),
        "evicted": float(evicted),
        "delays": float(sum(o.n_delays for o in outcomes)),
        "rejection_rate": rejected / n if n else 0.0,
        "eviction_rate": evicted / n if n else 0.0,
        "slo_miss_rate": misses / n if n else 0.0,
        "mean_latency_us": sum(latencies) / len(latencies) if latencies else 0.0,
        "p99_latency_us": percentile(latencies, 0.99),
        "mean_slowdown": sum(slowdowns) / len(slowdowns) if slowdowns else 0.0,
        "p99_slowdown": percentile(slowdowns, 0.99),
    }


@dataclass(frozen=True)
class ControlResult:
    """Control-plane outcome of one stream run."""

    outcomes: tuple[JobOutcome, ...]
    slo_slowdown: float

    # -- counters ----------------------------------------------------------

    @property
    def n_arrived(self) -> int:
        return len(self.outcomes)

    @property
    def n_completed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "completed")

    @property
    def n_rejected(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "rejected")

    @property
    def n_evicted(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "evicted")

    @property
    def n_admitted(self) -> int:
        """Jobs that passed admission (completed or later evicted)."""
        return self.n_completed + self.n_evicted

    @property
    def n_delays(self) -> int:
        """Total backoff re-queues over every job."""
        return sum(o.n_delays for o in self.outcomes)

    # -- rollups -----------------------------------------------------------

    def overall(self) -> dict[str, float]:
        """SLO metrics over the whole stream."""
        return _rollup(list(self.outcomes), self.slo_slowdown)

    def per_tenant(self) -> dict[str, dict[str, float]]:
        """SLO metrics grouped by tenant."""
        return self._grouped(lambda o: o.tenant)

    def per_class(self) -> dict[str, dict[str, float]]:
        """SLO metrics grouped by priority class."""
        return self._grouped(lambda o: o.qos)

    def _grouped(self, key) -> dict[str, dict[str, float]]:
        grouped: dict[str, list[JobOutcome]] = {}
        for o in self.outcomes:
            grouped.setdefault(key(o), []).append(o)
        return {k: _rollup(v, self.slo_slowdown) for k, v in grouped.items()}

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready report: counters, rollups, and every outcome."""
        return {
            "slo_slowdown": self.slo_slowdown,
            "n_arrived": self.n_arrived,
            "n_admitted": self.n_admitted,
            "n_completed": self.n_completed,
            "n_rejected": self.n_rejected,
            "n_evicted": self.n_evicted,
            "n_delays": self.n_delays,
            "overall": self.overall(),
            "per_tenant": self.per_tenant(),
            "per_class": self.per_class(),
            "outcomes": [o.as_dict() for o in self.outcomes],
        }

    # -- construction ------------------------------------------------------

    @classmethod
    def from_plane(
        cls,
        plane: "ControlPlane",
        job_results: "Iterable[JobResult]" = (),
    ) -> "ControlResult":
        """Build from a finished plane plus the completed jobs' results
        (source of latency/slowdown for completed outcomes)."""
        by_jid = {j.jid: j for j in job_results}
        outcomes = []
        for rec in plane.records():
            jr = by_jid.get(rec.jid)
            outcomes.append(JobOutcome(
                jid=rec.jid,
                name=rec.name,
                tenant=rec.tenant,
                qos=rec.qos,
                status=_STATUS_OF_RECORD.get(rec.status, rec.status),
                arrival_us=rec.arrival_us,
                cost_us=rec.cost_us,
                n_tasks=rec.n_tasks,
                n_delays=rec.n_delays,
                n_cancelled_tasks=rec.n_cancelled,
                shed_reason=rec.shed_reason,
                admitted_us=rec.admitted_us,
                settled_us=rec.settled_us,
                latency_us=jr.latency_us if jr is not None else None,
                slowdown=jr.slowdown if jr is not None else None,
            ))
        return cls(
            outcomes=tuple(outcomes),
            slo_slowdown=plane.config.slo_slowdown,
        )
