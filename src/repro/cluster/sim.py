"""Two-level cluster simulation: global placement over per-node engines.

:func:`simulate_cluster` runs a :class:`~repro.workload.stream.JobStream`
on a multi-node :class:`~repro.cluster.topology.Cluster`:

1. **Global admission** (optional) — a
   :class:`~repro.control.quota.QuotaAccountant` meters tenants at the
   cluster door; a job is costed at its *cheapest* node's total work
   and either admitted (guaranteed jobs may overdraft) or shed. The
   per-node delay/eviction machinery of :mod:`repro.control` stays a
   node-tier concern and is not applied globally.
2. **Global placement** — a
   :class:`~repro.cluster.placement.GlobalScheduler` assigns each
   admitted job to one node, costing candidates with that node's own
   perf model plus projected fabric transfer delays for cross-node
   ``after`` dependencies.
3. **Per-node execution** — each node independently runs its sub-stream
   through an unmodified engine + scheduler (MultiPrio by default),
   exactly as :meth:`~repro.api.SimSpec.run_stream` would. Node runs are
   independent simulations, so ``jobs=N`` shards them across processes
   via :func:`repro.sweep.run_tasks` — hundreds-of-node clusters
   simulate in parallel, bit-identical to the serial order.
4. **Cross-node dependency fixed point** — an ``after`` edge whose
   endpoints landed on different nodes couples the otherwise decoupled
   node clocks: the successor may only be released once the
   predecessor's output bytes arrive over the fabric. The driver
   iterates to a fixed point — run nodes, charge each cross edge's
   transfer to the fabric at the predecessor's completion, raise the
   successor's release to the arrival, rerun — until no release moves
   (releases are monotone non-decreasing, so the loop converges;
   ``max_rounds`` caps it and the result records ``converged``).
   Streams without cross-node chains finish in one round.

A single-node cluster degenerates to exactly
:meth:`~repro.api.SimSpec.run_stream`: same merged program, same engine
configuration, bit-identical schedule — the equivalence the
``repro check`` differential suite enforces.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Hashable

from repro.api import SimConfig, _build_simulator
from repro.cluster.result import (
    ClusterJobResult,
    ClusterResult,
    CrossTransfer,
    NodeStats,
    PlacementRecord,
)
from repro.cluster.spec import ClusterSpec
from repro.cluster.topology import Cluster
from repro.cluster.placement import (
    GlobalScheduler,
    PlacementPolicy,
    make_placement,
)
from repro.obs.events import JobRejected
from repro.platform.machines import MachineModel
from repro.runtime.perfmodel import AnalyticalPerfModel
from repro.runtime.stf import Program, template_key
from repro.sweep import CallSpec, run_tasks
from repro.utils.validation import ValidationError
from repro.workload.merge import merge_stream
from repro.workload.stream import Job, JobStream

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.control.plane import ControlConfig

#: Float slack below which a release bump does not trigger another round.
_RELEASE_EPS = 1e-9


def job_work_us(
    program: Program, perfmodel: AnalyticalPerfModel, archs: tuple[str, ...]
) -> float:
    """Total best-architecture work of ``program`` under one node's model.

    Returns ``inf`` when some task has no implementation for any of the
    node's architectures (the job is infeasible there).
    """
    total = 0.0
    for task in program.tasks:
        usable = [a for a in archs if task.can_exec(a)]
        if not usable:
            return math.inf
        total += min(perfmodel.estimate(task, a) for a in usable)
    return total


def job_output_bytes(program: Program) -> int:
    """Bytes of the job's produced dataset: every handle some task writes.

    This is what a chained successor on another node must fetch over
    the fabric — the whole written working set, not just final sinks
    (the successor's sources read the predecessor's outputs wholesale
    in the closed-loop pattern).
    """
    seen: set[int] = set()
    total = 0
    for task in program.tasks:
        for handle in task.handles(written=True):
            if handle.hid not in seen:
                seen.add(handle.hid)
                total += handle.size
    return total


# -- picklable per-node cells (executed by repro.sweep workers) -------------


def _node_cell(
    node_name: str,
    machine: MachineModel,
    jobs: tuple[Job, ...],
    releases: dict[int, float],
    scheduler: str,
    cfg: SimConfig,
    stream_name: str,
) -> dict:
    """Run one node's sub-stream; return a picklable outcome payload.

    ``releases`` maps jid → earliest release (≥ the job's arrival) as
    imposed by cross-node dependency arrivals; the job's tasks' release
    times are raised accordingly before the run.
    """
    stream = JobStream(name=stream_name, jobs=jobs)
    merged = merge_stream(stream)
    adjusted = list(merged.release_times or [0.0] * len(merged.tasks))
    bumped = False
    for span in merged.jobs:
        rel = releases.get(span.jid, span.arrival_us)
        if rel > span.arrival_us:
            bumped = True
            for tid in range(span.first_tid, span.first_tid + span.n_tasks):
                adjusted[tid] = rel
    if bumped:
        # Cross-node arrivals may raise a release past a later job's,
        # so the adjusted vector skips Program.__init__'s monotonicity
        # validation — the engine's reveal loop handles any values.
        merged.release_times = tuple(adjusted)
    res = _build_simulator(cfg, machine, scheduler).run(merged)
    job_records: dict[int, tuple[float, float]] = {}
    task_records: list[tuple[int, int, float, float]] = []
    for span in merged.jobs:
        recs = [
            merged.tasks[tid].sched["_record"]
            for tid in range(span.first_tid, span.first_tid + span.n_tasks)
        ]
        job_records[span.jid] = (
            min(r[2] for r in recs), max(r[3] for r in recs)
        )
        task_records.extend(
            (span.first_tid + i, r[0], r[2], r[3]) for i, r in enumerate(recs)
        )
    return {
        "node": node_name,
        "sim": res,
        "job_records": job_records,
        "task_records": tuple(sorted(task_records)),
    }


def _baseline_cell(
    machine: MachineModel, program: Program, scheduler: str, cfg: SimConfig
) -> float:
    """Isolated makespan of one program on one node."""
    return _build_simulator(cfg, machine, scheduler).run(program).makespan


# -- the facade -------------------------------------------------------------


def simulate_cluster(
    stream: JobStream,
    cluster: Cluster | ClusterSpec,
    scheduler: str = "multiprio",
    *,
    placement: PlacementPolicy | str = "load-aware",
    placement_params: dict | None = None,
    config: SimConfig | None = None,
    control: "ControlConfig | None" = None,
    isolated_baseline: bool = True,
    jobs: int = 1,
    max_rounds: int = 16,
    progress: Callable[[int, int], None] | None = None,
) -> ClusterResult:
    """Simulate ``stream`` on a multi-node cluster.

    Parameters
    ----------
    stream:
        The arriving jobs (any :class:`~repro.workload.stream.JobStream`).
    cluster:
        A :class:`~repro.cluster.topology.Cluster` or the
        :class:`~repro.cluster.spec.ClusterSpec` to instantiate.
    scheduler:
        Per-node scheduler *registry name* (each node builds its own
        instance; passing an instance would share scheduler state
        between nodes and is rejected).
    placement:
        Global placement policy — a registry name (see
        :func:`~repro.cluster.placement.placement_names`) instantiated
        with ``placement_params``, or a ready
        :class:`~repro.cluster.placement.PlacementPolicy`.
    control:
        Optional :class:`~repro.control.ControlConfig`; its quotas are
        enforced at the *global* tier (accept or shed only — delays,
        in-flight budgets and eviction remain per-node concerns and are
        ignored here). Guaranteed jobs always admit (overdraft).
    jobs:
        Process count for sharding node simulations (and isolated
        baselines) via :func:`repro.sweep.run_tasks`; any value yields
        bit-identical results.
    max_rounds:
        Cap on cross-node dependency fixed-point iterations. Release
        bumps ripple through node schedules, so scattered workflow
        chains can need a few more rounds than their depth; the
        default absorbs typical ripples and ``converged`` records
        whether the run settled within the cap.
    config / isolated_baseline:
        As in :meth:`~repro.api.SimSpec.run_stream`, applied per node
        (``None`` means the default :class:`~repro.api.SimConfig`). The
        config may not carry a ``perfmodel``, ``faults`` or
        ``record_trace`` — per-node models are built from each node's
        own calibration, and fault injection at the cluster tier is not
        supported yet.

    Returns a :class:`~repro.cluster.result.ClusterResult`.
    """
    clus = Cluster(cluster) if isinstance(cluster, ClusterSpec) else cluster
    if not isinstance(scheduler, str):
        raise ValidationError(
            "simulate_cluster needs the scheduler by registry name (each "
            f"node instantiates its own); got {type(scheduler).__name__}"
        )
    cfg = config if config is not None else SimConfig()
    if cfg.perfmodel is not None:
        raise ValidationError(
            "simulate_cluster builds one perf model per node from its own "
            "calibration; an explicit SimConfig.perfmodel cannot serve "
            "heterogeneous nodes"
        )
    if cfg.faults is not None:
        raise ValidationError(
            "fault injection is not supported at the cluster tier yet"
        )
    if cfg.record_trace:
        raise ValidationError(
            "record_trace is not supported at the cluster tier; per-node "
            "task records are always available in the result payloads"
        )
    policy = (
        make_placement(placement, **(placement_params or {}))
        if isinstance(placement, str)
        else placement
    )
    if placement_params and not isinstance(placement, str):
        raise ValidationError(
            "placement_params only apply when the policy is given by name"
        )
    clus.reset_runtime_state()
    events: list = []

    # A job's work estimate and isolated baseline on a node depend on the
    # node only through its machine model, and on the job only through
    # its program's structure (``ProgramFactory`` builds a fresh program
    # per job, so identity would never share). Both caches are keyed by
    # (machine, template), each interned to a small int once so a lookup
    # does not rehash a structural key.
    machines: dict[MachineModel, int] = {}
    machine_id = {
        n: machines.setdefault(clus.machine_of(n), len(machines))
        for n in clus.node_names
    }
    templates: dict[Hashable, int] = {}
    template_of = {
        j.jid: templates.setdefault(template_key(j.program), len(templates))
        for j in stream.jobs
    }
    program_of: dict[int, Program] = {j.jid: j.program for j in stream.jobs}
    archs_by_node = {name: clus.archs_of(name) for name in clus.node_names}
    work_cache: dict[tuple[int, int], float] = {}

    def work_on(node: str, jid: int) -> float:
        key = (machine_id[node], template_of[jid])
        cached = work_cache.get(key)
        if cached is None:
            cached = work_cache[key] = job_work_us(
                program_of[jid], clus.perfmodel_of(node), archs_by_node[node]
            )
        return cached

    # -- global admission (quotas at the cluster door) -------------------
    rejected: list[tuple[int, str, str]] = []
    admitted: list[Job] = []
    accountant = None
    if control is not None:
        from repro.control.quota import QuotaAccountant

        accountant = QuotaAccountant(control.quotas, control.default_quota)
    admitted_jids: set[int] = set()
    for job in stream.jobs:
        if accountant is None:
            admitted.append(job)
            admitted_jids.add(job.jid)
            continue
        cost = min(work_on(n, job.jid) for n in clus.node_names)
        if not math.isfinite(cost):
            cost = 0.0  # infeasible everywhere; placement will raise
        now = job.arrival_us
        if job.qos == "guaranteed" or accountant.can_afford(job.tenant, cost, now):
            accountant.charge(job.tenant, cost, now)
            admitted.append(job)
            admitted_jids.add(job.jid)
        else:
            rejected.append((job.jid, job.tenant, "quota"))
            events.append(JobRejected(
                t=now, jid=job.jid, tenant=job.tenant, qos=job.qos,
                reason="quota",
            ))

    # -- global placement ------------------------------------------------
    global_sched = GlobalScheduler(clus, policy)
    for job in admitted:
        work = tuple(work_on(n, job.jid) for n in clus.node_names)
        pred: tuple[int, int] | None = None
        if job.after is not None and job.after in admitted_jids:
            pred_record = global_sched.placements[job.after]
            pred = (
                clus.node_index(pred_record.node),
                job_output_bytes(program_of[job.after]),
            )
        global_sched.place(job, work, pred)
    events.extend(global_sched.events)
    placements: dict[int, PlacementRecord] = global_sched.placements

    # -- per-node sub-streams and cross-node edges -----------------------
    jobs_by_node: dict[str, list[Job]] = {n: [] for n in clus.node_names}
    cross_edges: list[tuple[int, int, str, str, int]] = []
    for job in admitted:
        node = placements[job.jid].node
        sub = job
        if job.after is not None:
            pred_ok = job.after in admitted_jids
            same_node = pred_ok and placements[job.after].node == node
            if pred_ok and not same_node:
                cross_edges.append((
                    job.after, job.jid, placements[job.after].node, node,
                    job_output_bytes(program_of[job.after]),
                ))
            if not same_node:
                sub = replace(job, after=None)
        jobs_by_node[node].append(sub)
    active_nodes = [n for n in clus.node_names if jobs_by_node[n]]

    # -- fixed-point execution of the decoupled node engines -------------
    releases: dict[int, float] = {j.jid: j.arrival_us for j in admitted}
    payload_by_node: dict[str, dict] = {}
    transfers: list[CrossTransfer] = []
    rounds = 0
    converged = not admitted
    while rounds < max_rounds and not converged:
        rounds += 1
        cells = [
            CallSpec(_node_cell, (
                node,
                clus.machine_of(node),
                tuple(jobs_by_node[node]),
                {j.jid: releases[j.jid] for j in jobs_by_node[node]},
                scheduler,
                cfg,
                f"{stream.name}@{node}",
            ))
            for node in active_nodes
        ]
        outcomes = run_tasks(cells, jobs=jobs, progress=progress)
        payload_by_node = {p["node"]: p for p in outcomes}
        if not cross_edges:
            converged = True
            break
        completion: dict[int, float] = {}
        for payload in outcomes:
            for jid, (_, end) in payload["job_records"].items():
                completion[jid] = end
        clus.reset_runtime_state()
        transfers = []
        changed = False
        for pred_jid, succ_jid, src, dst, nbytes in sorted(
            cross_edges, key=lambda e: (completion[e[0]], e[0], e[1])
        ):
            depart = completion[pred_jid]
            arrive = clus.transfer_charge(src, dst, nbytes, depart)
            transfers.append(CrossTransfer(
                pred_jid=pred_jid, succ_jid=succ_jid, src=src, dst=dst,
                nbytes=nbytes, depart_us=depart, arrive_us=arrive,
                hops=clus.hops(src, dst),
            ))
            if arrive > releases[succ_jid] + _RELEASE_EPS:
                releases[succ_jid] = arrive
                changed = True
        if not changed:
            converged = True

    # -- isolated baselines (on each job's placed node) ------------------
    isolated: dict[int, float] = {}
    if isolated_baseline and admitted:
        cell_of: dict[tuple[int, int], int] = {}
        cell_of_jid: dict[int, int] = {}
        cells = []
        for job in admitted:
            node = placements[job.jid].node
            key = (machine_id[node], template_of[job.jid])
            if key not in cell_of:
                cell_of[key] = len(cells)
                cells.append(CallSpec(
                    _baseline_cell,
                    (clus.machine_of(node), job.program, scheduler, cfg),
                ))
            cell_of_jid[job.jid] = cell_of[key]
        makespans = run_tasks(cells, jobs=jobs, progress=progress)
        isolated = {jid: makespans[i] for jid, i in cell_of_jid.items()}

    # -- assembly --------------------------------------------------------
    node_sims = {n: p["sim"] for n, p in payload_by_node.items()}
    cluster_makespan = max(
        (res.makespan for res in node_sims.values()), default=0.0
    )
    nodes: list[NodeStats] = []
    for name in clus.node_names:
        payload = payload_by_node.get(name)
        n_workers = clus.n_workers_of(name)
        if payload is None:
            nodes.append(NodeStats(
                name=name, n_workers=n_workers, n_jobs=0, n_tasks=0,
                makespan_us=0.0, busy_us=0.0, utilization=0.0,
            ))
            continue
        res = payload["sim"]
        busy = sum(res.exec_time_by_arch.values())
        horizon = n_workers * cluster_makespan
        nodes.append(NodeStats(
            name=name,
            n_workers=n_workers,
            n_jobs=len(payload["job_records"]),
            n_tasks=res.n_tasks,
            makespan_us=res.makespan,
            busy_us=busy,
            utilization=busy / horizon if horizon > 0 else 0.0,
        ))

    job_results: list[ClusterJobResult] = []
    for job in admitted:
        node = placements[job.jid].node
        start, end = payload_by_node[node]["job_records"][job.jid]
        job_results.append(ClusterJobResult(
            jid=job.jid,
            name=job.name or job.program.name,
            tenant=job.tenant,
            arrival_us=job.arrival_us,
            start_us=start,
            end_us=end,
            n_tasks=len(job.program),
            isolated_us=isolated.get(job.jid),
            node=node,
        ))

    result = ClusterResult(
        cluster_name=clus.name,
        policy=policy.name,
        scheduler=scheduler,
        jobs=job_results,
        nodes=nodes,
        placements=placements,
        transfers=transfers,
        rejected=rejected,
        rounds=rounds,
        converged=converged,
        events=tuple(events),
        link_stats=clus.link_stats(),
        node_sims=node_sims,
    )
    result._task_records = {  # type: ignore[attr-defined]
        n: p["task_records"] for n, p in payload_by_node.items()
    }
    _maybe_check(result, cfg, len(stream.jobs))
    return result


def _maybe_check(result: ClusterResult, cfg: SimConfig, n_arrived: int) -> None:
    """Run the cluster checker family when invariant checking is on."""
    enabled = cfg.check_invariants
    if enabled is None:
        import os

        enabled = os.environ.get("REPRO_CHECK_INVARIANTS", "") not in ("", "0")
    if not enabled:
        return
    from repro.check.cluster import check_cluster

    violations = check_cluster(result, n_arrived=n_arrived)
    if violations:
        from repro.utils.validation import InvariantError

        raise InvariantError(
            "cluster invariants violated:\n  " + "\n  ".join(violations)
        )
