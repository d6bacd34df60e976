"""Per-job and per-tenant outcomes of a simulated stream.

:class:`JobResult` is derived from the merged run's task records (no
trace or observability needed): when the job's first task started, when
its last task finished, and — when isolated baselines were run — the
job's slowdown against having the machine to itself.

:class:`StreamResult` aggregates: mean/p95 latency, slowdown spread,
Jain's fairness index over per-job slowdowns (latencies when baselines
are off), throughput, and per-tenant rollups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.analysis.stats import jain_fairness_index, percentile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.control.result import ControlResult
    from repro.runtime.engine import SimResult


@dataclass(frozen=True)
class JobResult:
    """End-to-end outcome of one job inside a stream run.

    All times are µs of virtual clock. ``start_us`` is the first task's
    execution start; ``end_us`` the last task's completion.
    ``isolated_us`` is the job's makespan when simulated alone on the
    same machine/scheduler/seed (``None`` when baselines were skipped).
    """

    jid: int
    name: str
    tenant: str
    arrival_us: float
    start_us: float
    end_us: float
    n_tasks: int
    isolated_us: float | None = None
    #: Absolute deadline (arrival + the job's relative deadline);
    #: ``None`` for jobs submitted without one.
    deadline_us: float | None = None
    #: Busy joules the power ledger charged to the job's own executions
    #: (idle draw is a platform cost and is not attributed); ``None``
    #: when the run had no power model (``SimConfig(power=...)``).
    energy_j: float | None = None

    @property
    def latency_us(self) -> float:
        """Response time: arrival to last completion."""
        return self.end_us - self.arrival_us

    @property
    def queueing_us(self) -> float:
        """Delay before any of the job's work executed."""
        return self.start_us - self.arrival_us

    @property
    def slowdown(self) -> float | None:
        """Latency over isolated makespan (1.0 = no interference)."""
        if self.isolated_us is None or self.isolated_us <= 0:
            return None
        return self.latency_us / self.isolated_us

    @property
    def lateness_us(self) -> float | None:
        """Signed lateness: completion minus deadline (negative = early).

        ``None`` for jobs without a deadline. The job misses exactly
        when its lateness is positive (finishing *at* the deadline
        meets it), so ``missed == (lateness_us > 0)`` always.
        """
        if self.deadline_us is None:
            return None
        return self.end_us - self.deadline_us

    @property
    def missed(self) -> bool | None:
        """Whether the job missed its deadline (``None`` = no deadline)."""
        lateness = self.lateness_us
        return None if lateness is None else lateness > 0.0

    @property
    def edp_j_s(self) -> float | None:
        """Energy-delay product: attributed joules × latency, in J·s
        (``None`` without energy attribution)."""
        if self.energy_j is None:
            return None
        return self.energy_j * self.latency_us * 1e-6

    def as_dict(self) -> dict[str, Any]:
        """Flat JSON-ready mapping, derived metrics included."""
        return {
            "jid": self.jid,
            "name": self.name,
            "tenant": self.tenant,
            "arrival_us": self.arrival_us,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "n_tasks": self.n_tasks,
            "isolated_us": self.isolated_us,
            "latency_us": self.latency_us,
            "queueing_us": self.queueing_us,
            "slowdown": self.slowdown,
            "deadline_us": self.deadline_us,
            "lateness_us": self.lateness_us,
            "missed": self.missed,
            "energy_j": self.energy_j,
            "edp_j_s": self.edp_j_s,
        }


def _p95(values: list[float]) -> float:
    """Nearest-rank p95, safe on empty/singleton inputs (0.0 when empty)."""
    return percentile(values, 0.95)


@dataclass
class StreamResult:
    """Outcome of one stream simulation: per-job results + the raw run.

    ``jobs`` holds the *completed* jobs only — under a control plane
    (``control`` is then set) rejected and evicted jobs never finish, so
    an all-rejected run carries an empty list. Every aggregate below is
    defined (and NaN-free) for any job count, including zero.
    """

    stream_name: str
    machine: str
    scheduler: str
    jobs: list[JobResult]
    sim: "SimResult" = field(repr=False)
    #: Admission/eviction outcome; ``None`` for uncontrolled runs.
    control: "ControlResult | None" = None

    @property
    def makespan_us(self) -> float:
        """Completion time of the whole merged run."""
        return self.sim.makespan

    @property
    def throughput_jobs_per_s(self) -> float:
        """Completed jobs per second of virtual time."""
        if self.makespan_us <= 0:
            return 0.0
        return len(self.jobs) / (self.makespan_us * 1e-6)

    @property
    def mean_latency_us(self) -> float:
        if not self.jobs:
            return 0.0
        return sum(j.latency_us for j in self.jobs) / len(self.jobs)

    @property
    def p95_latency_us(self) -> float:
        return _p95([j.latency_us for j in self.jobs])

    @property
    def p99_latency_us(self) -> float:
        return percentile([j.latency_us for j in self.jobs], 0.99)

    @property
    def mean_queueing_us(self) -> float:
        if not self.jobs:
            return 0.0
        return sum(j.queueing_us for j in self.jobs) / len(self.jobs)

    @property
    def deadline_jobs(self) -> list[JobResult]:
        """The completed jobs that carried a deadline."""
        return [j for j in self.jobs if j.deadline_us is not None]

    @property
    def deadline_miss_rate(self) -> float:
        """Fraction of deadline-tagged jobs that missed (0.0 when none)."""
        tagged = self.deadline_jobs
        if not tagged:
            return 0.0
        return sum(1 for j in tagged if j.missed) / len(tagged)

    @property
    def latenesses_us(self) -> list[float]:
        """Signed lateness of every deadline-tagged job (job order)."""
        return [j.lateness_us for j in self.deadline_jobs]

    @property
    def p50_lateness_us(self) -> float:
        return percentile(self.latenesses_us, 0.50)

    @property
    def p95_lateness_us(self) -> float:
        return percentile(self.latenesses_us, 0.95)

    @property
    def p99_lateness_us(self) -> float:
        return percentile(self.latenesses_us, 0.99)

    @property
    def jobs_energy_j(self) -> float:
        """Busy joules attributed to completed jobs (0.0 when the run
        had no power model)."""
        return sum(j.energy_j or 0.0 for j in self.jobs)

    @property
    def total_energy_j(self) -> float | None:
        """Whole-run joules, idle draw included.

        Requires the engine's power subsystem (``SimConfig(power=...)``)
        — reads ``sim.energy``; ``None`` otherwise. :attr:`jobs_energy_j`
        is the busy share charged to completed jobs.
        """
        energy = self.sim.energy
        return energy.total_j if energy is not None else None

    @property
    def mean_edp_j_s(self) -> float:
        """Mean per-job energy-delay product, J·s (0.0 when the run
        had no power model)."""
        vals = [j.edp_j_s for j in self.jobs if j.edp_j_s is not None]
        if not vals:
            return 0.0
        return sum(vals) / len(vals)

    @property
    def slowdowns(self) -> list[float] | None:
        """Per-job slowdowns, or ``None`` when baselines were skipped."""
        vals = [j.slowdown for j in self.jobs]
        if any(v is None for v in vals):
            return None
        return vals  # type: ignore[return-value]

    @property
    def mean_slowdown(self) -> float | None:
        vals = self.slowdowns
        return sum(vals) / len(vals) if vals else None

    @property
    def max_slowdown(self) -> float | None:
        vals = self.slowdowns
        return max(vals) if vals else None

    @property
    def fairness(self) -> float:
        """Jain index over slowdowns (latencies without baselines)."""
        vals = self.slowdowns
        if vals is None:
            vals = [j.latency_us for j in self.jobs]
        return jain_fairness_index(vals)

    @property
    def tenant_fairness(self) -> float:
        """Jain index over per-tenant mean slowdowns (mean latencies
        when baselines were skipped): how evenly *tenants* — rather than
        individual jobs — shared the node. 1.0 for zero or one tenant."""
        grouped: dict[str, list[JobResult]] = {}
        for job in self.jobs:
            grouped.setdefault(job.tenant, []).append(job)
        means: list[float] = []
        for mine in grouped.values():
            slows = [j.slowdown for j in mine]
            if slows and all(s is not None for s in slows):
                means.append(sum(slows) / len(slows))  # type: ignore[arg-type]
            else:
                means.append(sum(j.latency_us for j in mine) / len(mine))
        return jain_fairness_index(means)

    def per_tenant(self) -> dict[str, dict[str, float]]:
        """Per-tenant aggregates: job count, mean latency/queueing, and
        mean slowdown when baselines were run."""
        grouped: dict[str, list[JobResult]] = {}
        for job in self.jobs:
            grouped.setdefault(job.tenant, []).append(job)
        out: dict[str, dict[str, float]] = {}
        for tenant, mine in grouped.items():
            entry = {
                "jobs": float(len(mine)),
                "mean_latency_us": sum(j.latency_us for j in mine) / len(mine),
                "mean_queueing_us": sum(j.queueing_us for j in mine) / len(mine),
            }
            slows = [j.slowdown for j in mine]
            if all(s is not None for s in slows):
                entry["mean_slowdown"] = sum(slows) / len(slows)  # type: ignore[arg-type]
            tagged = [j for j in mine if j.deadline_us is not None]
            if tagged:
                entry["n_deadline_jobs"] = float(len(tagged))
                entry["deadline_miss_rate"] = (
                    sum(1 for j in tagged if j.missed) / len(tagged)
                )
            energies = [j.energy_j for j in mine if j.energy_j is not None]
            if energies:
                entry["energy_j"] = sum(energies)
                edps = [j.edp_j_s for j in mine if j.edp_j_s is not None]
                entry["mean_edp_j_s"] = sum(edps) / len(edps)
            out[tenant] = entry
        return out

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready report: stream-level stats plus every job."""
        return {
            "stream": self.stream_name,
            "machine": self.machine,
            "scheduler": self.scheduler,
            "n_jobs": len(self.jobs),
            "makespan_us": self.makespan_us,
            "throughput_jobs_per_s": self.throughput_jobs_per_s,
            "mean_latency_us": self.mean_latency_us,
            "p95_latency_us": self.p95_latency_us,
            "mean_queueing_us": self.mean_queueing_us,
            "p99_latency_us": self.p99_latency_us,
            "mean_slowdown": self.mean_slowdown,
            "max_slowdown": self.max_slowdown,
            "n_deadline_jobs": len(self.deadline_jobs),
            "deadline_miss_rate": self.deadline_miss_rate,
            "p50_lateness_us": self.p50_lateness_us,
            "p95_lateness_us": self.p95_lateness_us,
            "p99_lateness_us": self.p99_lateness_us,
            "fairness": self.fairness,
            "tenant_fairness": self.tenant_fairness,
            "jobs_energy_j": self.jobs_energy_j,
            "total_energy_j": self.total_energy_j,
            "mean_edp_j_s": self.mean_edp_j_s,
            "per_tenant": self.per_tenant(),
            "control": self.control.as_dict() if self.control else None,
            "jobs": [j.as_dict() for j in self.jobs],
        }
