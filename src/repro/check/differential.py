"""Differential and metamorphic whole-run properties.

Where :mod:`repro.check.invariants` validates state *inside* one run,
this module compares *across* runs and against analytic bounds — the
properties a correct simulator cannot violate regardless of policy:

* **Determinism** — with ``noise_sigma=0`` a run is bit-identical across
  repeats, across ``record_level`` and with the invariant checker on or
  off; none of those knobs may perturb the schedule.
* **Lower bounds** — the makespan is bounded below by the critical path
  (chain of per-task best-architecture estimates) and by total work
  divided by the worker count.
* **Fault-free equivalence** — a :class:`~repro.runtime.faults.FaultModel`
  whose rates are all zero produces the same run as ``fault_model=None``
  (the fault paths must not consume RNG draws or perturb event order).
* **Window equivalence** — a submission window at least as large as the
  program never binds, so ``submission_window=len(tasks)`` must be
  bit-identical to ``None`` (the unified reveal loop may not perturb
  push order, and the windowed bookkeeping may not leak).
* **Pipeline bound** — disabling worker lookahead (``pipeline=False``)
  may only beat the pipelined run by what staging can explain: the
  runs' total wire time (foregone transfer overlap) plus one mis-bound
  task per worker (staging commits tasks to workers early).
* **Control-plane no-op equivalence** — a control plane with infinite
  credits, no global budget and eviction off
  (:meth:`~repro.control.ControlConfig.unlimited`) admits everything
  and must reproduce the uncontrolled ``SimSpec.run_stream`` run
  bit-for-bit (the admission gate may not perturb reveal order, events
  or accounting).
* **Real-time no-op equivalence** — an all-zero
  :class:`~repro.runtime.overhead.SchedOverheadModel` must equal
  ``overhead=None``, a :class:`~repro.runtime.resources.ResourceProtocol`
  on a program naming no resources must equal ``resources=None``, and
  tagging a stream's jobs with deadlines must not move a single task
  under a deadline-oblivious scheduler — the rt subsystems may only
  change a schedule when they are genuinely engaged. All three idle
  ledgers together (zero overheads, an idle resource protocol, an
  uncapped power model) under the checker must equal a ledger-free run:
  the engine's run hooks compose without perturbing anything.
* **Power no-op equivalence** — a *passive*
  :class:`~repro.runtime.power.PowerStateModel` (no node caps, fastest
  runnable state at full speed) must reproduce the power-blind run
  bit-for-bit — the admission/booking/charging hooks may only meter,
  never perturb — and the metering model's
  :class:`~repro.runtime.power.EnergyReport` total, summed from the
  ledger's per-state busy accrual, must equal
  :func:`~repro.extensions.energy.energy_of_result`, summed from the
  engine's ``busy_us_by_worker``, bit for bit.
* **Baseline dedup** — stream and cluster runs simulate one isolated
  baseline per distinct program structure (and, on a cluster, per node
  machine model); every job's ``isolated_us`` must still equal a
  standalone run of that job's own program, bit for bit, under noise,
  faults and heterogeneous nodes.

:func:`run_differential_suite` bundles these with an invariant-checked
sweep over the built-in applications × schedulers (with and without a
transient fault load) — the engine behind the ``repro check`` CLI
subcommand and ``tests/check/test_differential.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.apps.dense import cholesky_program, lu_program, qr_program
from repro.apps.fmm import fmm_program
from repro.platform.machines import MACHINES, MachineModel
from repro.obs.events import TaskEnd
from repro.runtime.engine import Simulator, SimResult
from repro.runtime.faults import FaultModel
from repro.runtime.perfmodel import AnalyticalPerfModel
from repro.runtime.stf import Program
from repro.schedulers.registry import make_scheduler

#: Schedulers every sweep covers (the paper's subject + both baselines).
DEFAULT_SCHEDULERS = ("multiprio", "dmdas", "heteroprio")

#: Absolute slack (µs) for floating-point comparisons of time sums.
_EPS = 1e-6


@dataclass
class CheckOutcome:
    """Result of one differential/invariant check."""

    name: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        mark = "ok  " if self.passed else "FAIL"
        tail = f" — {self.detail}" if self.detail and not self.passed else ""
        return f"[{mark}] {self.name}{tail}"


def builtin_apps(quick: bool = False) -> list[tuple[str, Callable[[], Program]]]:
    """Named program factories the sweeps iterate over.

    Quick mode keeps the three structurally-distinct small graphs
    (dense Cholesky, dense LU, the COMMUTE-heavy FMM); the full set
    adds QR. Factories rebuild the program each call so parallel or
    repeated use never shares runtime state by accident.
    """
    apps: list[tuple[str, Callable[[], Program]]] = [
        ("cholesky6", lambda: cholesky_program(6, 512)),
        ("lu6", lambda: lu_program(6, 512)),
        ("fmm", lambda: fmm_program(1500, height=3, seed=0)),
    ]
    if not quick:
        apps.append(("qr5", lambda: qr_program(5, 512)))
    return apps


# -- single-run plumbing ---------------------------------------------------


def _machine(machine: MachineModel | str) -> MachineModel:
    if isinstance(machine, str):
        return MACHINES[machine]()
    return machine


def _run(
    program: Program,
    machine: MachineModel,
    scheduler: str,
    **kwargs,
) -> tuple[SimResult, Simulator]:
    sim = Simulator(
        machine.platform(),
        make_scheduler(scheduler),
        AnalyticalPerfModel(machine.calibration()),
        seed=0,
        **kwargs,
    )
    return sim.run(program), sim


def fingerprint(res: SimResult, program: Program | None = None) -> tuple:
    """Bit-comparable summary of one run: every task's worker, pop, start
    and end time, the makespan and the bytes moved.

    With ``program``, the placements are the engine's per-task
    ``sched["_record"]``, available at every record level; read them
    right after the run, since the program's next run resets them.
    Without it they come from the run's ``TaskEnd`` events
    (``record_level="tasks"`` or above) — the way to fingerprint a
    stream run, whose merged program stays inside ``run_stream``.
    """
    if program is not None:
        records = [
            (t.tid, *t.sched["_record"])
            for t in program.tasks
            if "_record" in t.sched  # cancelled tasks never ran
        ]
    else:
        assert res.events is not None, (
            "fingerprint needs the program or record_level='tasks'"
        )
        records = [
            (e.tid, e.wid, e.pop_time, e.start, e.end)
            for e in res.events
            if isinstance(e, TaskEnd)
        ]
    return (tuple(sorted(records)), res.makespan, res.bytes_transferred)


def _fingerprinted(
    program: Program, machine: MachineModel, scheduler: str, **kwargs
) -> tuple:
    """Run ``program`` and fingerprint it before anything runs it again."""
    res, _ = _run(program, machine, scheduler, **kwargs)
    return fingerprint(res, program)


def _wire_us(sim: Simulator) -> float:
    """Total queue-free wire time of every transfer the run committed."""
    return sum(
        link.bytes_moved / link.bandwidth + link.n_transfers * link.latency
        for link in sim.platform.transfers.links()
    )


# -- analytic lower bounds -------------------------------------------------


def makespan_lower_bounds(
    program: Program, machine: MachineModel
) -> tuple[float, float]:
    """(critical-path, work/width) lower bounds on any noise-free run.

    Uses each task's best-architecture estimate δ_min — with
    ``noise_sigma=0`` the sampled duration equals the estimate, so no
    schedule can finish a dependency chain faster than its δ_min sum,
    nor all work faster than evenly spread over every worker.
    """
    pm = AnalyticalPerfModel(machine.calibration())
    platform = machine.platform()
    archs = [a for a in platform.archs if platform.n_workers(a) > 0]
    dmin: dict[int, float] = {}
    for task in program.tasks:
        dmin[task.tid] = min(
            pm.estimate(task, a) for a in archs if task.can_exec(a)
        )
    # program.tasks is in submission order, which topologically orders
    # the DAG (dependencies only point at earlier submissions).
    cp: dict[int, float] = {}
    for task in program.tasks:
        longest = max((cp[p.tid] for p in task.preds), default=0.0)
        cp[task.tid] = longest + dmin[task.tid]
    critical_path = max(cp.values(), default=0.0)
    work_width = sum(dmin.values()) / max(1, len(platform.workers))
    return critical_path, work_width


# -- differential properties ----------------------------------------------


def check_determinism(
    name: str, program: Program, machine: MachineModel, scheduler: str
) -> list[CheckOutcome]:
    """Repeats and observability/checker flags must not move a single task."""
    out = []
    base = _fingerprinted(program, machine, scheduler)
    out.append(CheckOutcome(
        f"determinism.repeat[{name}/{scheduler}]",
        base == _fingerprinted(program, machine, scheduler),
        "two identical noise-free runs diverged",
    ))
    out.append(CheckOutcome(
        f"determinism.checker[{name}/{scheduler}]",
        base == _fingerprinted(
            program, machine, scheduler, check_invariants=True
        ),
        "enabling the invariant checker perturbed the schedule",
    ))
    out.append(CheckOutcome(
        f"determinism.record_level[{name}/{scheduler}]",
        base == _fingerprinted(
            program, machine, scheduler, record_level="decisions"
        ),
        "record_level=decisions perturbed the schedule",
    ))

    cp, ww = makespan_lower_bounds(program, machine)
    bound = max(cp, ww)
    makespan = base[1]
    out.append(CheckOutcome(
        f"bounds.makespan[{name}/{scheduler}]",
        makespan >= bound - _EPS,
        f"makespan {makespan:.3f}us beat the lower bound "
        f"max(critical-path {cp:.3f}, work/width {ww:.3f})us",
    ))
    return out


def check_fault_free_equivalence(
    name: str, program: Program, machine: MachineModel, scheduler: str
) -> CheckOutcome:
    """An all-zero fault model must be indistinguishable from none."""
    plain = _fingerprinted(program, machine, scheduler)
    zeroed = _fingerprinted(
        program, machine, scheduler,
        fault_model=FaultModel(task_failure_rate=0.0, seed=0),
    )
    return CheckOutcome(
        f"faults.zero_rate[{name}/{scheduler}]",
        plain == zeroed,
        "a zero-rate FaultModel perturbed the fault-free run",
    )


def check_window_equivalence(
    name: str, program: Program, machine: MachineModel, scheduler: str
) -> list[CheckOutcome]:
    """A window that never binds must not move a single task.

    ``submission_window >= len(tasks)`` can never block the reveal
    (in-flight count ≤ total tasks), so both it and a comfortably larger
    window must reproduce the unbounded run bit-for-bit.
    """
    out = []
    base = _fingerprinted(program, machine, scheduler)
    for window in (len(program.tasks), 4 * len(program.tasks)):
        windowed = _fingerprinted(
            program, machine, scheduler, submission_window=window
        )
        out.append(CheckOutcome(
            f"window.equivalence[{name}/{scheduler}/w={window}]",
            base == windowed,
            f"submission_window={window} (>= {len(program.tasks)} tasks) "
            f"diverged from submission_window=None",
        ))
    return out


#: Policies whose PUSH is interleaving-invariant: delaying a ready-task
#: reveal to the next flush (same virtual time ordering, same push order)
#: provably cannot change any decision, so the batched hot path must be
#: bit-identical to per-event scheduling at ANY batch_step once
#: drain-on-idle flushes the buffer before every pop. The work-stealing
#: pair is excluded by design: its push routes through push-time context
#: (the worker that released the task), which batching legitimately
#: shifts.
_BATCH_INVARIANT_EXCLUDED = frozenset({"ws", "lws"})


def check_batch_equivalence(
    name: str, program: Program, machine: MachineModel, scheduler: str
) -> list[CheckOutcome]:
    """The batched reveal path must be bit-identical to per-event.

    With ``batch_drain_on_idle=True`` the engine flushes its reveal
    buffer before every pop, so the scheduler observes exactly the
    per-event queue contents at every decision point — for any
    ``batch_step``, not just steps too small to bin two reveals
    together. The sweep covers a step below the smallest kernel time
    (every batch is a singleton), a mid-range step that genuinely bins
    reveals, and a step beyond the makespan (one giant bin, drain-fed).
    The no-drain variant only promises liveness and checker-clean
    gating, which the batch invariant family validates.
    """
    out = []
    if scheduler in _BATCH_INVARIANT_EXCLUDED:
        return out
    base = _fingerprinted(program, machine, scheduler)
    for step in (1.0, 250.0, 1e9):
        batched = _fingerprinted(
            program, machine, scheduler,
            batch_step=step, check_invariants=True,
        )
        out.append(CheckOutcome(
            f"batch.equivalence[{name}/{scheduler}/step={step:g}]",
            base == batched,
            f"batch_step={step:g} with drain-on-idle diverged from the "
            "per-event path",
        ))
    nodrain = _fingerprinted(
        program, machine, scheduler,
        batch_step=200.0, batch_drain_on_idle=False, check_invariants=True,
    )
    out.append(CheckOutcome(
        f"batch.nodrain_complete[{name}/{scheduler}]",
        len(nodrain[0]) == len(program.tasks),
        "fixed-step batching (no drain) failed to run every task",
    ))
    return out


def check_pipeline_bound(
    name: str, program: Program, machine: MachineModel, scheduler: str
) -> CheckOutcome:
    """Lookahead staging can only lose what its mechanisms can explain.

    Staging differs from the unpipelined run in two ways: transfers
    overlap execution (worth at most the total wire time of either run),
    and each worker *binds* one task ahead of time — a binding that may
    strand a task on a busy worker while another idles, costing at most
    the slowest implementation of the largest task, once per worker.
    A gap beyond that combined allowance means the engine lost time the
    pipeline mechanism cannot account for.
    """
    piped, sim_p = _run(program, machine, scheduler, pipeline=True)
    unpiped, sim_u = _run(program, machine, scheduler, pipeline=False)
    pm = AnalyticalPerfModel(machine.calibration())
    platform = sim_p.platform
    archs = [a for a in platform.archs if platform.n_workers(a) > 0]
    max_exec = max(
        pm.estimate(task, a)
        for task in program.tasks
        for a in archs
        if task.can_exec(a)
    )
    allowance = (
        _wire_us(sim_p) + _wire_us(sim_u)
        + len(platform.workers) * max_exec + _EPS
    )
    gap = piped.makespan - unpiped.makespan
    return CheckOutcome(
        f"pipeline.bound[{name}/{scheduler}]",
        gap <= allowance,
        f"pipeline=False beat pipeline=True by {gap:.3f}us, more than "
        f"transfer overlap plus one mis-bound task per worker "
        f"({allowance:.3f}us) could explain",
    )


def check_invariant_sweep(
    name: str,
    program: Program,
    machine: MachineModel,
    scheduler: str,
    fault_rate: float,
) -> list[CheckOutcome]:
    """Run under the invariant validator, fault-free and fault-loaded."""
    out = []
    try:
        _run(program, machine, scheduler, check_invariants=True)
        out.append(CheckOutcome(f"invariants[{name}/{scheduler}]", True))
    except Exception as exc:  # noqa: BLE001 - report, don't crash the sweep
        out.append(CheckOutcome(
            f"invariants[{name}/{scheduler}]", False, f"{type(exc).__name__}: {exc}"
        ))
    try:
        _run(
            program, machine, scheduler, check_invariants=True,
            fault_model=FaultModel(
                task_failure_rate=fault_rate, max_retries=100, seed=7
            ),
        )
        out.append(CheckOutcome(f"invariants+faults[{name}/{scheduler}]", True))
    except Exception as exc:  # noqa: BLE001
        out.append(CheckOutcome(
            f"invariants+faults[{name}/{scheduler}]", False,
            f"{type(exc).__name__}: {exc}",
        ))
    return out


def check_control_noop_equivalence(
    machine: MachineModel,
    schedulers: Iterable[str],
) -> list[CheckOutcome]:
    """``ControlConfig.unlimited()`` must not move a single task.

    Runs one mixed-QoS Poisson stream per scheduler, controlled vs
    uncontrolled, and compares full run fingerprints plus the control
    ledger (everything admitted, nothing shed, delayed or evicted).
    """
    from repro.api import SimConfig, SimSpec
    from repro.control.plane import ControlConfig
    from repro.workload.stream import poisson_stream

    out = []
    for scheduler in schedulers:
        stream = poisson_stream(
            [lambda: cholesky_program(4, 512), lambda: lu_program(4, 512)],
            rate_jobs_per_s=50.0,
            n_jobs=8,
            seed=11,
            tenants=("t0", "t1", "t2"),
            qos=("guaranteed", "burstable", "best-effort"),
        )
        cfg = SimConfig(record_level="tasks")
        plain = SimSpec(
            machine, scheduler, config=cfg, isolated_baseline=False
        ).run_stream(stream)
        controlled = SimSpec(
            machine, scheduler, config=cfg, isolated_baseline=False,
            control=ControlConfig.unlimited(),
        ).run_stream(stream)
        out.append(CheckOutcome(
            f"control.noop[{scheduler}]",
            fingerprint(plain.sim) == fingerprint(controlled.sim),
            "an unlimited control plane perturbed the stream schedule",
        ))
        ctl = controlled.control
        clean = (
            ctl is not None
            and ctl.n_arrived == ctl.n_completed == len(stream.jobs)
            and ctl.n_rejected == ctl.n_evicted == ctl.n_delays == 0
            and controlled.sim.n_cancelled == 0
        )
        out.append(CheckOutcome(
            f"control.noop_ledger[{scheduler}]",
            clean,
            "an unlimited control plane rejected/delayed/evicted work "
            f"(counters: {None if ctl is None else ctl.as_dict()['overall']})",
        ))
    return out


def check_rt_noop_equivalence(
    machine: MachineModel,
    schedulers: Iterable[str],
) -> list[CheckOutcome]:
    """Disengaged rt subsystems must not move a single task.

    Four bit-identity properties per scheduler, all on the same Poisson
    stream:

    * ``SchedOverheadModel()`` (all costs zero) vs ``overhead=None`` —
      the charging hooks may not perturb arrival times or event order
      when every charge is free;
    * ``ResourceProtocol()`` vs ``resources=None`` on a stream whose
      tasks name no resources — an idle ledger may not gate any start;
    * the deadline-tagged stream vs the same stream undecorated — a
      deadline-oblivious policy must schedule identically whether or
      not ``Task.deadline_us`` is set (deadlines are data, not control,
      until a policy opts in);
    * all five run hooks idle at once — ``SchedOverheadModel()``,
      ``ResourceProtocol()``, an uncapped ``PowerStateModel()``, a
      zero-rate ``FaultModel`` and ``ControlConfig.unlimited()``, with
      the invariant checker on — vs none of them: the engine's run hooks
      must compose, not just each be a no-op alone.
    """
    from repro.api import SimConfig, SimSpec
    from repro.control.plane import ControlConfig
    from repro.runtime.overhead import SchedOverheadModel
    from repro.runtime.power import PowerStateModel
    from repro.runtime.resources import ResourceProtocol
    from repro.workload.stream import poisson_stream

    def _stream(deadline: float | None):
        return poisson_stream(
            [lambda: cholesky_program(4, 512), lambda: lu_program(4, 512)],
            rate_jobs_per_s=60.0,
            n_jobs=8,
            seed=13,
            tenants=("t0", "t1"),
            deadline=deadline,
        )

    out = []
    for scheduler in schedulers:
        cfg = SimConfig(record_level="tasks")
        plain = SimSpec(
            machine, scheduler, config=cfg, isolated_baseline=False
        ).run_stream(_stream(None))
        zero_ov = SimSpec(
            machine, scheduler, config=cfg, isolated_baseline=False,
            overhead=SchedOverheadModel(),
        ).run_stream(_stream(None))
        out.append(CheckOutcome(
            f"rt.overhead_noop[{scheduler}]",
            fingerprint(plain.sim) == fingerprint(zero_ov.sim),
            "an all-zero SchedOverheadModel perturbed the stream schedule",
        ))
        idle_res = SimSpec(
            machine, scheduler, config=cfg, isolated_baseline=False,
            resources=ResourceProtocol(),
        ).run_stream(_stream(None))
        out.append(CheckOutcome(
            f"rt.resources_noop[{scheduler}]",
            fingerprint(plain.sim) == fingerprint(idle_res.sim),
            "a ResourceProtocol over resource-free tasks perturbed the "
            "stream schedule",
        ))
        tagged = SimSpec(
            machine, scheduler, config=cfg, isolated_baseline=False
        ).run_stream(_stream(50_000.0))
        out.append(CheckOutcome(
            f"rt.deadline_noop[{scheduler}]",
            fingerprint(plain.sim) == fingerprint(tagged.sim),
            "tagging jobs with deadlines perturbed a deadline-oblivious "
            "scheduler",
        ))
        all_idle = SimSpec(
            machine, scheduler, config=cfg, isolated_baseline=False,
            overhead=SchedOverheadModel(), resources=ResourceProtocol(),
            power=PowerStateModel(), faults=FaultModel(task_failure_rate=0.0, seed=0),
            control=ControlConfig.unlimited(), check_invariants=True,
        ).run_stream(_stream(None))
        out.append(CheckOutcome(
            f"rt.ledgers_noop[{scheduler}]",
            fingerprint(plain.sim) == fingerprint(all_idle.sim),
            "an all-zero overhead model, an idle resource protocol, an "
            "uncapped power model, a zero-rate fault model and an "
            "unlimited control plane together perturbed the stream schedule",
        ))
    return out


def check_power_noop_equivalence(
    machine: MachineModel,
    schedulers: Iterable[str],
) -> list[CheckOutcome]:
    """A passive power model must meter without moving a single task.

    Three properties per scheduler, on one dense program:

    * the default ladder (``full`` fastest, no caps) vs ``power=None`` —
      admission always picks the full state at the requested start, the
      ``speed == 1.0`` path never rescales a duration, so the schedule
      must be bit-identical;
    * :meth:`~repro.runtime.power.PowerStateModel.metering` vs
      ``power=None`` — the single-state degenerate case, same identity;
    * the metering run's ``SimResult.energy.total_j`` vs
      :func:`~repro.extensions.energy.energy_of_result` on that same
      result — both are :func:`~repro.runtime.power.energy_report`,
      the first over the ledger's per-state busy accrual, the second
      over the engine's ``busy_us_by_worker``; the two busy tallies
      come from the same ``account`` call, so the joule totals must
      agree bit for bit, not just within tolerance.
    """
    from repro.extensions.energy import energy_of_result
    from repro.runtime.power import PowerStateModel

    out = []
    program_of = lambda: cholesky_program(5, 512)  # noqa: E731
    for scheduler in schedulers:
        plain = _fingerprinted(program_of(), machine, scheduler)
        ladder = _fingerprinted(
            program_of(), machine, scheduler,
            power=PowerStateModel(), check_invariants=True,
        )
        out.append(CheckOutcome(
            f"power.noop_ladder[{scheduler}]",
            plain == ladder,
            "an uncapped full/eco/sleep ladder perturbed the schedule",
        ))
        program = program_of()
        metered, sim = _run(
            program, machine, scheduler,
            power=PowerStateModel.metering(), check_invariants=True,
        )
        out.append(CheckOutcome(
            f"power.noop_metering[{scheduler}]",
            plain == fingerprint(metered, program),
            "a metering-only power model perturbed the schedule",
        ))
        assert metered.energy is not None
        recomputed = energy_of_result(metered, sim.platform)
        out.append(CheckOutcome(
            f"power.metering_joules[{scheduler}]",
            metered.energy.total_j == recomputed,
            f"the power ledger's busy accrual bills {metered.energy.total_j} J "
            f"but the engine's busy_us_by_worker bills {recomputed} J on the "
            "same run",
        ))
    return out


def check_cluster_single_node_equivalence(
    machine: MachineModel,
    schedulers: Iterable[str],
) -> list[CheckOutcome]:
    """A single-node cluster must be :meth:`SimSpec.run_stream`, bit for bit.

    The cluster tier degenerates when there is one node: placement has
    one choice, no ``after`` edge can cross nodes, and the node's
    sub-stream is the whole stream. The per-node engine must therefore
    reproduce the plain stream run exactly — same task placements and
    timings, same makespan, same intra-node traffic, same per-job
    latencies and isolated baselines. Any divergence means the cluster
    path perturbed the engine configuration or the merged program.
    """
    from repro.api import SimConfig, SimSpec
    from repro.cluster.spec import star_cluster
    from repro.workload.stream import poisson_stream

    out = []
    for scheduler in schedulers:
        stream = poisson_stream(
            [lambda: cholesky_program(4, 512), lambda: lu_program(4, 512)],
            rate_jobs_per_s=80.0,
            n_jobs=6,
            seed=5,
            tenants=("t0", "t1"),
        )
        plain = SimSpec(
            machine, scheduler, config=SimConfig(record_level="tasks")
        ).run_stream(stream)
        plain_records = tuple(sorted(
            (tid, wid, start, end)
            for tid, wid, _pop, start, end in fingerprint(plain.sim)[0]
        ))
        clustered = SimSpec(scheduler=scheduler).run_cluster(
            stream, star_cluster(1, machine)
        )
        node_sim = clustered.node_sims["node0"]
        cluster_records = clustered._task_records["node0"]  # type: ignore[attr-defined]
        out.append(CheckOutcome(
            f"cluster.single_node[{scheduler}]",
            (plain_records, plain.sim.makespan, plain.sim.bytes_transferred)
            == (cluster_records, node_sim.makespan, node_sim.bytes_transferred),
            "a 1-node cluster diverged from run_stream at task level",
        ))
        plain_jobs = [
            (j.jid, j.start_us, j.end_us, j.isolated_us) for j in plain.jobs
        ]
        cluster_jobs = [
            (j.jid, j.start_us, j.end_us, j.isolated_us) for j in clustered.jobs
        ]
        out.append(CheckOutcome(
            f"cluster.single_node_jobs[{scheduler}]",
            plain_jobs == cluster_jobs,
            "a 1-node cluster reported different per-job results than "
            "run_stream",
        ))
    return out


def check_stream_baseline_dedup(
    machine: MachineModel,
    schedulers: Iterable[str],
) -> list[CheckOutcome]:
    """Shared isolated baselines must equal per-job standalone runs.

    Two runs per scheduler, each comparing every job's ``isolated_us``
    with ``SimSpec.run`` of that job's program alone:

    * a Poisson stream with execution noise and a transient fault load
      — the baseline of a job whose structure an earlier job shares is
      that earlier job's run, so the noise and fault draws must replay
      identically per structure;
    * a chained cluster workload on a cluster of two machine models —
      baselines are shared per (machine, structure), so a job must get
      the baseline of its own node's machine.
    """
    from repro.api import SimSpec
    from repro.cluster.spec import ClusterNodeSpec, ClusterSpec, InterLinkSpec
    from repro.experiments.cluster_scale import cluster_workload
    from repro.platform.machines import small_hetero
    from repro.workload.stream import poisson_stream

    nodes = (
        ClusterNodeSpec("big", machine),
        ClusterNodeSpec("small", small_hetero(n_cpus=2)),
        ClusterNodeSpec("big2", machine),
    )
    cluster = ClusterSpec(
        name="hetero-star",
        nodes=nodes,
        links=tuple(
            link
            for node in nodes
            for link in (
                InterLinkSpec(node.name, "sw0", 12.5, 50.0),
                InterLinkSpec("sw0", node.name, 12.5, 50.0),
            )
        ),
        switches=("sw0",),
    )
    out = []
    for scheduler in schedulers:
        stream = poisson_stream(
            [lambda: cholesky_program(4, 512), lambda: lu_program(4, 512)],
            rate_jobs_per_s=80.0,
            n_jobs=6,
            seed=17,
            tenants=("t0", "t1"),
        )
        spec = SimSpec(
            machine, scheduler, seed=3, noise_sigma=0.2,
            faults=FaultModel(task_failure_rate=0.05, seed=1),
        )
        res = spec.run_stream(stream)
        alone = [spec.run(job.program).makespan for job in stream.jobs]
        out.append(CheckOutcome(
            f"stream.baseline_dedup[poisson/{scheduler}]",
            [j.isolated_us for j in res.jobs] == alone,
            "a shared isolated baseline differs from the job's standalone "
            "run under noise and faults",
        ))

        chains = cluster_workload(n_chains=4, chain_len=2, seed=2)
        # Round-robin lands both job shapes on both machine models.
        clustered = SimSpec(scheduler=scheduler).run_cluster(
            chains, cluster, placement="round-robin"
        )
        program_of = {job.jid: job.program for job in chains.jobs}
        machine_of = {node.name: node.machine for node in nodes}
        ok = len(clustered.jobs) == len(chains.jobs) and all(
            j.isolated_us
            == SimSpec(machine_of[j.node], scheduler).run(program_of[j.jid]).makespan
            for j in clustered.jobs
        )
        out.append(CheckOutcome(
            f"stream.baseline_dedup[cluster/{scheduler}]",
            ok,
            "a shared cluster baseline differs from the job's standalone "
            "run on its node's machine",
        ))
    return out


# -- the suite -------------------------------------------------------------


def run_differential_suite(
    machine: MachineModel | str = "intel-v100",
    schedulers: Iterable[str] = DEFAULT_SCHEDULERS,
    quick: bool = False,
    fault_rate: float = 0.05,
    apps: Iterable[tuple[str, Callable[[], Program]]] | None = None,
    progress: Callable[[CheckOutcome], None] | None = None,
) -> list[CheckOutcome]:
    """Every differential + invariant check over apps × schedulers.

    ``quick`` trims the app list and runs the heavier cross-run
    properties only under the first scheduler per app (the invariant
    sweep always covers the full scheduler grid); ``apps`` replaces the
    built-in grid entirely. ``progress`` is called once per finished
    check — the CLI uses it for live output.
    """
    mach = _machine(machine)
    schedulers = tuple(schedulers)
    results: list[CheckOutcome] = []

    def emit(outcomes: CheckOutcome | list[CheckOutcome]) -> None:
        batch = [outcomes] if isinstance(outcomes, CheckOutcome) else outcomes
        for outcome in batch:
            results.append(outcome)
            if progress is not None:
                progress(outcome)

    for name, factory in (apps if apps is not None else builtin_apps(quick)):
        program = factory()
        for scheduler in schedulers:
            emit(check_invariant_sweep(name, program, mach, scheduler, fault_rate))
        diff_scheds = schedulers[:1] if quick else schedulers
        for scheduler in diff_scheds:
            emit(check_determinism(name, program, mach, scheduler))
            emit(check_fault_free_equivalence(name, program, mach, scheduler))
            emit(check_window_equivalence(name, program, mach, scheduler))
            emit(check_batch_equivalence(name, program, mach, scheduler))
            emit(check_pipeline_bound(name, program, mach, scheduler))
    emit(check_control_noop_equivalence(
        mach, schedulers[:1] if quick else schedulers
    ))
    emit(check_rt_noop_equivalence(
        mach, schedulers[:1] if quick else schedulers
    ))
    emit(check_power_noop_equivalence(
        mach, schedulers[:1] if quick else schedulers
    ))
    emit(check_cluster_single_node_equivalence(
        mach, schedulers[:1] if quick else schedulers
    ))
    emit(check_stream_baseline_dedup(
        mach, schedulers[:1] if quick else schedulers
    ))
    return results
