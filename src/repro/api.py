"""Top-level facade: one spec from (machine, scheduler, knobs) to results.

:class:`SimSpec` is the single entry point: it bundles the machine, the
scheduler and every engine knob once, then runs any workload shape —
a task graph, an online job stream, or a multi-node cluster::

    from repro import SimSpec
    from repro.apps.dense import cholesky_program

    spec = SimSpec("intel-v100", "multiprio")
    res = spec.run(cholesky_program(10, 960))
    print(res.makespan, res.gflops)

The same spec drives the online path (and the cluster tier via
:meth:`SimSpec.run_cluster`)::

    from repro.workload import poisson_stream

    spec = SimSpec("small-hetero", "multiprio", batch_step=50.0)
    sres = spec.run_stream(poisson_stream([lambda: cholesky_program(6, 512)],
                                          rate_jobs_per_s=20.0, n_jobs=8))
    print(sres.mean_latency_us, sres.fairness)

:class:`SimConfig` is the per-run knob bundle ``SimSpec`` embeds;
``SimSpec``'s single-field keywords (``seed=``, ``batch_step=``, ...)
are shorthands that fold into it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Hashable

from repro.obs.events import RecordLevel
from repro.platform.machines import MACHINES, MachineModel
from repro.runtime.engine import SimResult, Simulator
from repro.runtime.faults import FaultModel
from repro.runtime.overhead import SchedOverheadModel
from repro.runtime.perfmodel import AnalyticalPerfModel
from repro.runtime.power import ArchPower, PowerModel, PowerStateModel
from repro.runtime.resources import ResourceProtocol
from repro.runtime.stf import Program, template_key
from repro.schedulers.base import Scheduler
from repro.schedulers.registry import make_scheduler
from repro.utils.validation import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.result import ClusterResult
    from repro.cluster.spec import ClusterSpec
    from repro.cluster.topology import Cluster
    from repro.control.plane import ControlConfig, ControlPlane
    from repro.runtime.perfmodel import PerfModel
    from repro.workload.results import StreamResult
    from repro.workload.stream import JobStream

#: Coarse draw charged to architectures the power model does not cover
#: when attributing per-job energy (an explicit opt-in — the model
#: itself raises ``KeyError`` on unknown architectures).
_GENERIC_DRAW = ArchPower(busy_watts=50.0, idle_watts=10.0)


@dataclass
class SimConfig:
    """Bundled per-run engine options (embedded by :class:`SimSpec`).

    Attributes mirror :class:`~repro.runtime.engine.Simulator` keywords;
    ``sched_params`` are forwarded to the scheduler factory when the
    scheduler is given by registry name, and ``perfmodel`` (when set)
    replaces the default :class:`AnalyticalPerfModel` built from the
    machine's calibration with ``noise_sigma``. ``batch_step`` /
    ``batch_drain_on_idle`` select the engine's batched hot path (see
    :class:`~repro.runtime.engine.Simulator`).
    """

    seed: int = 0
    noise_sigma: float = 0.0
    perfmodel: "PerfModel | None" = None
    faults: FaultModel | None = None
    record_trace: bool = False
    record_level: RecordLevel | str | int = RecordLevel.OFF
    pipeline: bool = True
    submission_window: int | None = None
    check_invariants: bool | None = None
    batch_step: float | None = None
    batch_drain_on_idle: bool = True
    overhead: SchedOverheadModel | None = None
    resources: ResourceProtocol | None = None
    power: PowerStateModel | None = None
    sched_params: dict = field(default_factory=dict)


def _resolve_machine(machine: MachineModel | str) -> MachineModel:
    """A :class:`MachineModel` from an instance or a registry name."""
    if isinstance(machine, str):
        factory = MACHINES.get(machine)
        if factory is None:
            raise ValidationError(
                f"unknown machine {machine!r}; known: {', '.join(sorted(MACHINES))}"
            )
        return factory()
    return machine


def _build_simulator(
    cfg: SimConfig,
    mach: MachineModel,
    scheduler: Scheduler | str,
    control_plane: "ControlPlane | None" = None,
) -> Simulator:
    """One fully-wired :class:`Simulator` from a config bundle."""
    if isinstance(scheduler, str):
        sched = make_scheduler(scheduler, **cfg.sched_params)
    else:
        if cfg.sched_params:
            raise ValidationError(
                "sched_params only apply when the scheduler is given by name; "
                f"got an instance plus params {cfg.sched_params!r}"
            )
        sched = scheduler
    pm = cfg.perfmodel
    if pm is None:
        pm = AnalyticalPerfModel(mach.calibration(), noise_sigma=cfg.noise_sigma)
    return Simulator(
        mach.platform(),
        sched,
        pm,
        seed=cfg.seed,
        record_trace=cfg.record_trace,
        pipeline=cfg.pipeline,
        submission_window=cfg.submission_window,
        fault_model=cfg.faults,
        record_level=cfg.record_level,
        check_invariants=cfg.check_invariants,
        control_plane=control_plane,
        batch_step=cfg.batch_step,
        batch_drain_on_idle=cfg.batch_drain_on_idle,
        overhead=cfg.overhead,
        resources=cfg.resources,
        power=cfg.power,
    )


@dataclass
class SimSpec:
    """One declarative simulation spec: where, how, and with which knobs.

    Build it once, run any workload shape against it:

    * :meth:`run` — one task graph → :class:`SimResult`;
    * :meth:`run_stream` — an online job stream →
      :class:`~repro.workload.results.StreamResult`;
    * :meth:`run_cluster` — a stream on a multi-node cluster →
      :class:`~repro.cluster.result.ClusterResult`.

    Parameters
    ----------
    machine:
        A :class:`~repro.platform.machines.MachineModel` or its registry
        name (``"intel-v100"``, ``"small-hetero"``, ...). Ignored by
        :meth:`run_cluster`, which takes its topology from the cluster.
    scheduler:
        A :class:`~repro.schedulers.base.Scheduler` instance or a
        registry name; names are instantiated with ``sched_params``.
    config:
        The embedded :class:`SimConfig`. The remaining keywords are
        conveniences that override single fields of it: ``SimSpec(m, s,
        seed=3)`` equals ``SimSpec(m, s, config=SimConfig(seed=3))``.
        They are folded in at construction and then read ``None``; the
        effective values live in ``config``.
    control:
        Optional :class:`~repro.control.ControlConfig` admission control
        plane, applied by the stream and cluster paths.
    isolated_baseline:
        Whether stream/cluster runs also simulate each job alone to
        report per-job slowdowns. Jobs whose programs share a
        :meth:`~repro.runtime.stf.Program.signature` share one run.
    """

    machine: MachineModel | str = "intel-v100"
    scheduler: Scheduler | str = "multiprio"
    config: SimConfig = field(default_factory=SimConfig)
    control: "ControlConfig | None" = None
    isolated_baseline: bool = True
    # Single-field conveniences: folded into `config`, then reset to None.
    seed: "int | None" = None
    noise_sigma: "float | None" = None
    perfmodel: "PerfModel | None" = None
    faults: FaultModel | None = None
    record_trace: "bool | None" = None
    record_level: "RecordLevel | str | int | None" = None
    pipeline: "bool | None" = None
    submission_window: "int | None" = None
    check_invariants: "bool | None" = None
    batch_step: "float | None" = None
    batch_drain_on_idle: "bool | None" = None
    overhead: "SchedOverheadModel | None" = None
    resources: "ResourceProtocol | None" = None
    power: "PowerStateModel | None" = None
    sched_params: "dict | None" = None

    def __post_init__(self) -> None:
        # Fold the conveniences into `config` once and clear them, so
        # `config` alone holds the effective values and
        # `dataclasses.replace(spec, config=...)` keeps the new config.
        overrides = {}
        for f in fields(SimConfig):
            value = getattr(self, f.name)
            if value is not None:
                overrides[f.name] = dict(value) if f.name == "sched_params" else value
                setattr(self, f.name, None)
        if overrides:
            self.config = replace(self.config, **overrides)

    # -- internals -------------------------------------------------------

    def _machine(self) -> MachineModel:
        return _resolve_machine(self.machine)

    def simulator(
        self, control_plane: "ControlPlane | None" = None
    ) -> Simulator:
        """A fully-wired engine for this spec (fresh every call)."""
        return _build_simulator(
            self.config, self._machine(), self.scheduler, control_plane
        )

    @property
    def scheduler_name(self) -> str:
        return (
            self.scheduler
            if isinstance(self.scheduler, str)
            else self.scheduler.name
        )

    # -- entry points ----------------------------------------------------

    def run(self, program: Program) -> SimResult:
        """Simulate one task graph; returns the engine's result."""
        if self.control is not None:
            raise ValidationError(
                "control planes act on job streams; use run_stream() (or "
                "run_cluster()), or clear SimSpec.control for a plain run"
            )
        return self.simulator().run(program)

    def run_stream(self, stream: "JobStream") -> "StreamResult":
        """Simulate an online job stream.

        The stream is compiled with
        :func:`~repro.workload.merge.merge_stream` into one composite
        program whose tasks are released at their job's arrival time,
        then run through the normal engine — a stream with a single job
        arriving at t=0 is bit-identical to :meth:`run` on that job's
        program. With :attr:`control` set, the stream passes through the
        admission control plane (accept / delay / shed / evict); the
        result's ``jobs`` then holds completed jobs only and
        ``result.control`` carries the admission outcome.
        """
        from repro.workload.merge import merge_stream
        from repro.workload.results import JobResult, StreamResult

        cfg = self.config
        mach = self._machine()
        merged = merge_stream(stream)
        plane = None
        if self.control is not None:
            from repro.control.plane import ControlPlane

            plane = ControlPlane(self.control)
        res = _build_simulator(cfg, mach, self.scheduler, plane).run(merged)

        # Under a control plane only completed jobs have execution
        # records; shed/evicted jobs are reported through ControlResult.
        completed: set[int] | None = None
        if plane is not None:
            completed = {r.jid for r in plane.records() if r.status == "done"}

        # Isolated makespans by jid, one engine run per distinct program
        # structure: factories build a fresh program per job, and
        # structurally equal programs simulate identically.
        isolated: dict[int, float] = {}
        if self.isolated_baseline:
            by_template: dict[Hashable, float] = {}
            for job in stream.jobs:
                if completed is not None and job.jid not in completed:
                    continue
                key = template_key(job.program)
                makespan = by_template.get(key)
                if makespan is None:
                    makespan = by_template[key] = _build_simulator(
                        cfg, mach, self.scheduler
                    ).run(job.program).makespan
                isolated[job.jid] = makespan

        # Per-job busy-energy attribution: with the power subsystem on
        # (``config.power``) the engine stamped state-aware joules per
        # task; otherwise joules derive from each task's execution span
        # at its worker's busy watts. Architectures outside the power
        # model fall back to an explicit generic 50 W draw so exotic
        # platforms still report comparable (if coarse) numbers.
        arch_power = cfg.power.power if cfg.power is not None else PowerModel()
        watts_of = {
            w.wid: arch_power.arch_power(
                w.arch, default=_GENERIC_DRAW
            ).busy_watts
            for w in mach.platform().workers
        }

        jobs: list[JobResult] = []
        for span in merged.jobs:
            if completed is not None and span.jid not in completed:
                continue
            records = []
            joules = 0.0
            for tid in range(span.first_tid, span.first_tid + span.n_tasks):
                sched = merged.tasks[tid].sched
                rec = sched["_record"]
                records.append(rec)
                ej = sched.get("_energy_j")
                if ej is None:
                    ej = (rec[3] - rec[2]) * watts_of[rec[0]] * 1e-6
                joules += ej
            jobs.append(JobResult(
                jid=span.jid,
                name=span.name,
                tenant=span.tenant,
                arrival_us=span.arrival_us,
                start_us=min(r[2] for r in records),
                end_us=max(r[3] for r in records),
                n_tasks=span.n_tasks,
                isolated_us=isolated.get(span.jid),
                deadline_us=(
                    span.deadline_us
                    if span.deadline_us != float("inf")
                    else None
                ),
                energy_j=joules,
            ))
        control_result = None
        if plane is not None:
            from repro.control.result import ControlResult

            control_result = ControlResult.from_plane(plane, jobs)
        return StreamResult(
            stream_name=stream.name,
            machine=mach.name,
            scheduler=self.scheduler_name,
            jobs=jobs,
            sim=res,
            control=control_result,
        )

    def run_cluster(
        self,
        stream: "JobStream",
        cluster: "Cluster | ClusterSpec",
        **cluster_options,
    ) -> "ClusterResult":
        """Simulate a job stream on a multi-node cluster.

        ``cluster_options`` are the cluster-tier knobs of
        :func:`repro.cluster.simulate_cluster` (``placement``,
        ``placement_params``, ``jobs``, ``max_rounds``, ``progress``);
        everything else — scheduler, control plane, per-node engine
        options — comes from this spec. The per-node scheduler must be a
        registry name (each node instantiates its own).
        """
        from repro.cluster.sim import simulate_cluster

        return simulate_cluster(
            stream,
            cluster,
            self.scheduler,  # name-check happens in simulate_cluster
            config=self.config,
            control=self.control,
            isolated_baseline=self.isolated_baseline,
            **cluster_options,
        )
