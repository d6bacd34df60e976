"""The admission controller: accept / delay / shed / evict decisions.

The :class:`ControlPlane` is the engine's admission run hook, between
a merged job stream and the engine's reveal loop. When the STF
submission pointer reaches a job's first task, the loop calls
:meth:`ControlPlane.reveal`, which asks :meth:`ControlPlane.decide`;
the verdict is one of

``accept``
    The job is admitted: its estimated work is charged to the tenant's
    token bucket (:mod:`repro.control.quota`) and added to the global
    in-flight budget. Guaranteed-class jobs are *always* accepted —
    under overload they may carry a list of best-effort jobs to evict
    first (the plane cancels those jobs' unstarted tasks).
``delay``
    The job is pushed back: its release times move to ``retry_at``
    (bounded exponential backoff) and the plane re-decides when the
    clock gets there. Only burstable jobs are delayed, at most
    ``max_delays`` times. Because release times gate the reveal pointer,
    a delayed job blocks later arrivals — deliberate head-of-line
    backpressure mirroring a single STF submission thread.
``shed``
    The job is rejected outright: every task is cancelled before any
    ran. Best-effort jobs are shed on the first refusal; burstable jobs
    once their delay budget is spent. Guaranteed jobs are never shed.

The plane never touches engine randomness or link state, and with
:meth:`ControlConfig.unlimited` every decision is ``accept`` with no
side effects — a controlled run is then bit-identical to an
uncontrolled one (verified by ``repro check``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.control.quota import QuotaAccountant, TenantQuota
from repro.obs.events import JobAdmitted, JobDelayed, JobEvicted, JobRejected
from repro.utils.incremental import ChangeLog, ExactSum
from repro.utils.validation import ValidationError
from repro.workload.stream import QOS_CLASSES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.events import RunOps
    from repro.runtime.perfmodel import PerfModel
    from repro.runtime.task import Task
    from repro.workload.merge import StreamProgram


@dataclass(frozen=True)
class ControlConfig:
    """Tuning knobs of the control plane.

    ``max_inflight_us`` is the global budget: total estimated work-µs of
    admitted-but-unfinished jobs the node will carry (``None`` =
    unbounded). ``backoff_us * backoff_factor**k`` (capped at
    ``max_backoff_us``) is the k-th delay of a burstable job, and
    ``max_delays`` bounds k before the job is shed. ``slo_slowdown`` is
    the deadline proxy: a completed job whose slowdown exceeds it counts
    as an SLO miss in :class:`~repro.control.result.ControlResult`.
    """

    quotas: Mapping[str, TenantQuota] = field(default_factory=dict)
    default_quota: TenantQuota = field(default_factory=TenantQuota)
    max_inflight_us: float | None = None
    backoff_us: float = 1000.0
    backoff_factor: float = 2.0
    max_backoff_us: float = 16000.0
    max_delays: int = 4
    evict_on_overload: bool = True
    slo_slowdown: float = 4.0

    def __post_init__(self) -> None:
        if self.max_inflight_us is not None and self.max_inflight_us <= 0:
            raise ValidationError(
                f"max_inflight_us must be > 0 or None, got {self.max_inflight_us}"
            )
        if self.backoff_us <= 0 or self.backoff_factor < 1.0:
            raise ValidationError(
                "backoff_us must be > 0 and backoff_factor >= 1, got "
                f"{self.backoff_us}/{self.backoff_factor}"
            )
        if self.max_backoff_us < self.backoff_us:
            raise ValidationError(
                f"max_backoff_us {self.max_backoff_us} below backoff_us "
                f"{self.backoff_us}"
            )
        if self.max_delays < 0:
            raise ValidationError(f"max_delays must be >= 0, got {self.max_delays}")
        if self.slo_slowdown <= 0:
            raise ValidationError(f"slo_slowdown must be > 0, got {self.slo_slowdown}")

    def plane(self, program, perfmodel, archs, emit=None) -> "ControlPlane":
        """The run hook enforcing this config over one merged stream."""
        return ControlPlane(self, program, perfmodel, archs, emit)

    @classmethod
    def unlimited(cls) -> "ControlConfig":
        """The structural no-op: infinite credits, no global budget, no
        eviction. Guaranteed bit-identical to an uncontrolled run."""
        return cls(
            default_quota=TenantQuota(),
            max_inflight_us=None,
            evict_on_overload=False,
        )


@dataclass(frozen=True)
class Decision:
    """One admission verdict handed back to the engine."""

    action: str  # "accept" | "delay" | "shed"
    retry_at_us: float = 0.0
    evict_jids: tuple[int, ...] = ()
    reason: str = ""
    #: How many delays the job has absorbed so far (event provenance).
    attempt: int = 0
    #: The job's estimated work in µs (event provenance).
    cost_us: float = 0.0


class JobRecord:
    """Mutable per-job control state (internal to the plane)."""

    __slots__ = (
        "jid", "name", "tenant", "qos", "arrival_us", "first_tid", "n_tasks",
        "cost_us", "status", "n_delays", "first_decided_us", "admitted_us",
        "settled_us", "remaining_us", "n_left", "n_cancelled", "shed_reason",
        "admit_seq",
    )

    def __init__(self, span):
        self.jid = span.jid
        self.name = span.name
        self.tenant = span.tenant
        self.qos = span.qos
        self.arrival_us = span.arrival_us
        #: The job owns tasks ``[first_tid, first_tid + n_tasks)``.
        self.first_tid = span.first_tid
        self.n_tasks = span.n_tasks
        #: Σ min-arch δ(t) over the job's tasks, set by the plane.
        self.cost_us = 0.0
        #: pending -> admitted -> done, or pending -> shed,
        #: or admitted -> evicted.
        self.status = "pending"
        self.n_delays = 0
        self.first_decided_us: float | None = None
        self.admitted_us: float | None = None
        self.settled_us: float | None = None
        self.remaining_us = 0.0
        self.n_left = span.n_tasks
        self.n_cancelled = 0
        self.shed_reason = ""
        self.admit_seq = -1


class ControlPlane:
    """The engine's admission run hook: one :class:`ControlConfig` over
    one merged job stream, costing every job once as Σ min-arch δ(t).

    :meth:`begin` gets the run's :class:`~repro.runtime.events.RunOps`;
    :meth:`reveal` decides a job when the reveal pointer reaches its
    first task; :meth:`on_task_done` and :meth:`on_task_cancelled`
    settle its tasks; :meth:`finalize` hands the finished plane to
    ``SimResult.control``; :meth:`audit` re-derives the credit-
    conservation invariants for :mod:`repro.check`.
    """

    #: The :class:`~repro.runtime.engine.SimResult` field :meth:`finalize` fills.
    result_field = "control"

    def __init__(
        self, config: ControlConfig, program: "StreamProgram", perfmodel: "PerfModel",
        archs: Sequence[str], emit: Callable | None = None,
    ) -> None:
        jobs = getattr(program, "jobs", None)
        if not jobs:
            raise ValidationError(
                "a control plane needs a merged job-stream program "
                "(merge_stream output with job spans); got a plain Program: "
                "use run_stream() (or run_cluster()), or drop the control "
                "config for a plain run"
            )
        self.config = config
        self.emit = emit
        self.accountant = QuotaAccountant(config.quotas, config.default_quota)
        self._records: dict[int, JobRecord] = {}
        self._rec_of_tid: dict[int, JobRecord] = {}
        self._cost_of_tid: dict[int, float] = {}
        #: Records by their job's first task id, where :meth:`reveal` decides.
        self._rec_at_first: dict[int, JobRecord] = {}
        self.inflight_us = 0.0
        self._admit_seq = 0
        self.n_arrived = 0
        self.n_delays_total = 0
        archs = tuple(archs)
        for span in jobs:
            cost = 0.0
            rec = JobRecord(span)
            for tid in range(span.first_tid, span.first_tid + span.n_tasks):
                task = program.tasks[tid]
                dmin = min(
                    perfmodel.estimate(task, a) for a in archs if task.can_exec(a)
                )
                cost += dmin
                self._cost_of_tid[tid] = dmin
                self._rec_of_tid[tid] = rec
            rec.cost_us = cost
            self._records[span.jid] = rec
            self._rec_at_first[span.first_tid] = rec

    # -- run hook points ---------------------------------------------------

    def begin(self, ops: "RunOps") -> None:
        """Bind the run's operations (``cancel`` and ``delay``)."""
        self.ops = ops

    def reveal(self, task: "Task", now: float) -> bool:
        """Admit (after any evictions), shed or delay the job whose first
        task the reveal pointer reached; ``False`` (a delay) holds the
        reveal loop back."""
        rec = self._rec_at_first.get(task.tid)
        if rec is None:
            return True
        decision = self.decide(rec.jid, now)
        emit = self.emit
        if decision.action == "delay":
            self.ops.delay(rec.first_tid, rec.n_tasks, decision.retry_at_us)
            if emit is not None:
                emit(JobDelayed(
                    now, rec.jid, rec.tenant, rec.qos, decision.retry_at_us,
                    decision.attempt, decision.reason,
                ))
            return False
        if decision.action == "shed":
            self._cancel(rec, now, retract_ready=False)
            if emit is not None:
                emit(JobRejected(now, rec.jid, rec.tenant, rec.qos, decision.reason))
            return True
        for jid in decision.evict_jids:
            victim = self._records[jid]
            n_gone = self._cancel(victim, now, retract_ready=True)
            if emit is not None:
                emit(JobEvicted(now, jid, victim.tenant, victim.qos, n_gone))
        if emit is not None:
            emit(JobAdmitted(
                now, rec.jid, rec.tenant, rec.qos, decision.cost_us, decision.attempt
            ))
        return True

    def _cancel(self, rec: JobRecord, now: float, *, retract_ready: bool) -> int:
        """Cancel a job's unstarted tasks; returns how many went."""
        victims = self.ops.cancel(rec.first_tid, rec.n_tasks, retract_ready)
        for t in victims:
            self.on_task_cancelled(t.tid, now)
        return len(victims)

    def finalize(self, makespan: float, death_us: Mapping[int, float]) -> "ControlPlane":
        """This plane, finished; the run's operations and emitter are
        dropped so the result pickles."""
        self.ops = self.emit = None
        return self

    # -- the decision ------------------------------------------------------

    def decide(self, jid: int, now: float) -> Decision:
        """Admission verdict for job ``jid`` at virtual time ``now``."""
        cfg = self.config
        rec = self._records[jid]
        if rec.first_decided_us is None:
            rec.first_decided_us = now
            self.n_arrived += 1
        cost = rec.cost_us
        fits = (
            cfg.max_inflight_us is None
            or self.inflight_us + cost <= cfg.max_inflight_us + 1e-9
        )
        if rec.qos == "guaranteed":
            evict: tuple[int, ...] = ()
            if not fits and cfg.evict_on_overload:
                evict = self._pick_evictions(cost, now)
            self._admit(rec, now)
            return Decision(
                "accept", evict_jids=evict, attempt=rec.n_delays, cost_us=cost
            )
        affordable = self.accountant.can_afford(rec.tenant, cost, now)
        if affordable and fits:
            self._admit(rec, now)
            return Decision("accept", attempt=rec.n_delays, cost_us=cost)
        reason = "quota" if not affordable else "budget"
        if rec.qos == "burstable" and rec.n_delays < cfg.max_delays:
            backoff = min(
                cfg.max_backoff_us,
                cfg.backoff_us * cfg.backoff_factor ** rec.n_delays,
            )
            rec.n_delays += 1
            self.n_delays_total += 1
            return Decision(
                "delay", retry_at_us=now + backoff, reason=reason,
                attempt=rec.n_delays, cost_us=cost,
            )
        self._shed(rec, now, reason)
        return Decision("shed", reason=rec.shed_reason)

    def _admit(self, rec: JobRecord, now: float) -> None:
        self.accountant.charge(rec.tenant, rec.cost_us, now)
        rec.status = "admitted"
        rec.admitted_us = now
        rec.remaining_us = rec.cost_us
        rec.admit_seq = self._admit_seq
        self._admit_seq += 1
        self.inflight_us += rec.cost_us

    def _shed(self, rec: JobRecord, now: float, reason: str) -> None:
        rec.status = "shed"
        rec.settled_us = now
        rec.shed_reason = (
            f"{reason}-exhausted-after-{rec.n_delays}-delays"
            if rec.n_delays else reason
        )

    def _pick_evictions(self, cost_needed: float, now: float) -> tuple[int, ...]:
        """Evict best-effort jobs (newest admission first) until the
        incoming guaranteed job fits the global budget."""
        cfg = self.config
        assert cfg.max_inflight_us is not None
        headroom = cfg.max_inflight_us - self.inflight_us
        victims = [
            r for r in self._records.values()
            if r.status == "admitted" and r.qos == "best-effort"
            and r.remaining_us > 0.0
        ]
        victims.sort(key=lambda r: r.admit_seq, reverse=True)
        chosen: list[int] = []
        for rec in victims:
            if headroom + 1e-9 >= cost_needed:
                break
            headroom += rec.remaining_us
            self._evict(rec, now)
            chosen.append(rec.jid)
        return tuple(chosen)

    def _evict(self, rec: JobRecord, now: float) -> None:
        self.inflight_us -= rec.remaining_us
        if self.inflight_us < 1e-9:
            self.inflight_us = 0.0
        rec.remaining_us = 0.0
        rec.status = "evicted"
        rec.settled_us = now

    # -- task settlement ---------------------------------------------------

    def on_task_done(self, tid: int, now: float) -> None:
        """A task of a controlled job completed."""
        rec = self._rec_of_tid[tid]
        rec.n_left -= 1
        if rec.status == "admitted":
            cost = self._cost_of_tid[tid]
            rec.remaining_us = max(0.0, rec.remaining_us - cost)
            self.inflight_us = max(0.0, self.inflight_us - cost)
            if rec.n_left == 0:
                rec.status = "done"
                rec.settled_us = now
        # Evicted jobs' already-running tasks drain without accounting:
        # their remaining work was returned to the budget at eviction.

    def on_task_cancelled(self, tid: int, now: float) -> None:
        """A task of a controlled job was cancelled (shed or evicted)."""
        rec = self._rec_of_tid[tid]
        rec.n_left -= 1
        rec.n_cancelled += 1

    # -- reporting & auditing ----------------------------------------------

    def records(self) -> tuple[JobRecord, ...]:
        """Every job's control record, in jid order."""
        return tuple(self._records[j] for j in sorted(self._records))

    def counters(self) -> dict[str, int]:
        """Aggregate decision counters."""
        by_status: dict[str, int] = {}
        for rec in self._records.values():
            by_status[rec.status] = by_status.get(rec.status, 0) + 1
        return {
            "arrived": self.n_arrived,
            "admitted": (
                by_status.get("admitted", 0) + by_status.get("done", 0)
                + by_status.get("evicted", 0)
            ),
            "completed": by_status.get("done", 0),
            "rejected": by_status.get("shed", 0),
            "evicted": by_status.get("evicted", 0),
            "delays": self.n_delays_total,
            "pending": by_status.get("pending", 0),
        }

    def _value(self) -> tuple:
        """What the plane decided: every job record, field by field, in
        jid order, and the counters."""
        return (
            tuple(
                tuple(getattr(rec, name) for name in JobRecord.__slots__)
                for rec in self.records()
            ),
            self.counters(),
        )

    def __eq__(self, other: object) -> bool:
        # Value equality, so two identical controlled runs give equal
        # SimResults; a plane is mutable, hence unhashable.
        if not isinstance(other, ControlPlane):
            return NotImplemented
        return self._value() == other._value()

    def __repr__(self) -> str:
        counts = ", ".join(f"{k}={v}" for k, v in self.counters().items())
        return f"ControlPlane({len(self._records)} jobs: {counts})"

    #: What changed since the last :meth:`audit`: a
    #: :class:`~repro.utils.incremental.ChangeLog` of the job records
    #: written, filled by the invariant checker's write barrier during a
    #: checked run; None otherwise, and every audit starts over.
    _audit_log = None

    def audit(self, now: float) -> list[tuple[str, str]]:
        """``control`` violations: the credit-conservation invariants.

        The per-status counts and the admitted jobs' remaining work are
        kept between calls and updated for the records written since
        the last one. While they and the exact in-flight sum clear every
        invariant, only the token buckets are audited, and only after a
        balance moved; otherwise :meth:`_audit_from_scratch` re-derives
        everything and words the report.
        """
        log = self._audit_log or ChangeLog()
        changed = log.drain()
        memo = log.memo
        if changed is None:
            memo["shares"] = {}
            memo["tally"] = dict.fromkeys(_TALLIES, 0)
            memo["inflight"] = ExactSum()
            records = self._records.values()
        else:
            records = dict.fromkeys(changed[0])
        shares, tally, inflight = memo["shares"], memo["tally"], memo["inflight"]
        for rec in records:
            new = _audit_share(rec)
            old = shares.pop(rec, None)
            if new is not None:
                shares[rec] = new
            if new == old:
                continue
            for share, sign in ((old, -1), (new, 1)):
                if share is not None:
                    bucket, bad, remaining = share
                    tally["seen"] += sign
                    tally[bucket] += sign
                    tally["bad"] += sign * bad
                    if remaining is not None:
                        (inflight.add if sign > 0 else inflight.remove)(remaining)
        cfg = self.config
        if (
            tally["bad"]
            or tally["seen"] != tally["admitted"] + tally["shed"] + tally["pending"]
            or tally["seen"] != self.n_arrived
            or not inflight.within(self.inflight_us, 1e-9, 1e-6)
            or (cfg.max_inflight_us is not None
                and self.inflight_us > cfg.max_inflight_us + 1e-6)
        ):
            return self._audit_from_scratch()
        # The bucket audit reads only the balances: walk it when one moved.
        balances = self.accountant._balance_us
        if memo.get("balances") != balances:
            memo["balances"] = dict(balances)
            memo["buckets"] = [("control", d) for d in self.accountant.audit()]
        return list(memo["buckets"])

    def _audit_from_scratch(self) -> list[tuple[str, str]]:
        """The audit re-derived from every record.

        * every decided job is admitted, shed, or pending another delay
          (``arrived == admitted + rejected + delayed``);
        * evicted/completed jobs were admitted first (status machine);
        * the in-flight gauge equals the sum of admitted jobs' remaining
          work;
        * no guaranteed job was ever shed;
        * no token bucket exceeds its burst capacity.
        """
        out = []
        n_seen = n_admitted = n_shed = n_pending = 0
        inflight = 0.0
        for rec in self._records.values():
            if rec.first_decided_us is None:
                continue
            n_seen += 1
            if rec.status in ("admitted", "done", "evicted"):
                n_admitted += 1
            elif rec.status == "shed":
                n_shed += 1
                if rec.qos == "guaranteed":
                    out.append(
                        f"guaranteed job j{rec.jid} has status 'shed'"
                    )
            elif rec.status == "pending":
                n_pending += 1
                if rec.n_delays == 0:
                    out.append(
                        f"job j{rec.jid} was decided but is pending with "
                        f"no delay recorded: the decision leaked"
                    )
            else:
                out.append(f"job j{rec.jid} has unknown status {rec.status!r}")
            if rec.status == "admitted":
                inflight += rec.remaining_us
            if rec.n_left < 0 or rec.n_cancelled > rec.n_tasks:
                out.append(
                    f"job j{rec.jid} task accounting corrupt: n_left="
                    f"{rec.n_left}, n_cancelled={rec.n_cancelled}/{rec.n_tasks}"
                )
        if n_seen != n_admitted + n_shed + n_pending:
            out.append(
                f"credit conservation broken: {n_seen} decided jobs != "
                f"{n_admitted} admitted + {n_shed} shed + {n_pending} delayed"
            )
        if n_seen != self.n_arrived:
            out.append(
                f"arrival counter {self.n_arrived} disagrees with "
                f"{n_seen} first-decided records"
            )
        if not math.isinf(inflight) and abs(inflight - self.inflight_us) > max(
            1e-6, 1e-9 * abs(inflight)
        ):
            out.append(
                f"in-flight gauge {self.inflight_us:.3f}us diverges from the "
                f"sum of admitted jobs' remaining work {inflight:.3f}us"
            )
        cfg = self.config
        if cfg.max_inflight_us is not None and self.inflight_us > (
            cfg.max_inflight_us + 1e-6
        ):
            # Only guaranteed overdraft may exceed the budget; verify the
            # excess is attributable to guaranteed jobs.
            g_work = sum(
                r.remaining_us for r in self._records.values()
                if r.status == "admitted" and r.qos == "guaranteed"
            )
            if self.inflight_us - g_work > cfg.max_inflight_us + 1e-6:
                out.append(
                    f"in-flight work {self.inflight_us:.1f}us exceeds the "
                    f"budget {cfg.max_inflight_us:.1f}us beyond what "
                    f"guaranteed-class overdraft ({g_work:.1f}us) explains"
                )
        out.extend(self.accountant.audit())
        return [("control", detail) for detail in out]


#: Tallies of the incremental audit: decided records, records with a
#: violation of their own, and decided records per status bucket (None
#: for an unknown status).
_TALLIES = ("seen", "bad", "admitted", "shed", "pending", None)
_BUCKETS = {
    "admitted": "admitted", "done": "admitted", "evicted": "admitted",
    "shed": "shed", "pending": "pending",
}


def _audit_share(rec: JobRecord) -> tuple | None:
    """What one record adds to the audit's tallies: ``(bucket, has a
    violation of its own, remaining work if admitted)``; None while the
    job is undecided."""
    if rec.first_decided_us is None:
        return None
    status = rec.status
    bucket = _BUCKETS.get(status)
    bad = (
        bucket is None
        or (status == "shed" and rec.qos == "guaranteed")
        or (status == "pending" and rec.n_delays == 0)
        or rec.n_left < 0
        or rec.n_cancelled > rec.n_tasks
    )
    return bucket, bad, rec.remaining_us if status == "admitted" else None


def default_overload_config(
    *,
    tenants: Sequence[str],
    sustainable_work_per_s: float,
    share: float = 1.0,
    burst_jobs: float = 2.0,
    job_cost_us: float = 1.0,
    max_inflight_jobs: float = 8.0,
    slo_slowdown: float = 4.0,
) -> ControlConfig:
    """A reasonable config for overload experiments.

    Each tenant gets ``share / len(tenants)`` of the node's sustainable
    service rate (``sustainable_work_per_s``, task-seconds of work per
    second) and a burst of ``burst_jobs`` typical jobs; the global
    budget carries ``max_inflight_jobs`` typical jobs of estimated work.
    """
    if not tenants:
        raise ValidationError("default_overload_config needs >= 1 tenant")
    per_tenant = TenantQuota(
        rate=share * sustainable_work_per_s / len(tenants),
        burst=max(1e-6, burst_jobs * job_cost_us / 1e6),
    )
    return ControlConfig(
        default_quota=per_tenant,
        max_inflight_us=max_inflight_jobs * job_cost_us,
        slo_slowdown=slo_slowdown,
    )


__all__ = [
    "QOS_CLASSES",
    "ControlConfig",
    "ControlPlane",
    "Decision",
    "JobRecord",
    "default_overload_config",
]
