"""Fault sweep: scheduler robustness under injected transient failures.

No paper counterpart — the paper evaluates on a healthy platform — but
the schedulers it compares live inside StarPU, where kernels do fail and
devices do drop off. This experiment asks the production question: *does
MultiPrio's advantage survive a misbehaving platform?* It sweeps the
per-attempt transient failure rate on the Fig. 4 Cholesky setup and
reports, per scheduler, the makespan degradation relative to its own
fault-free run, plus the fault counters from
:class:`~repro.runtime.faults.FaultStats`.

A scripted fail-stop variant is included to exercise the recovery path:
the platform runs the GPU with two streams and one stream is killed
mid-run, so its running + staged tasks are recovered and re-pushed while
the device memory survives through the sibling stream. (Killing the
*last* worker of a GPU node on a write-heavy dense kernel correctly ends
in :class:`~repro.utils.validation.DataLossError` — the sole replica of
a freshly-written tile dies with the device.)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import SimConfig, SimSpec
from repro.apps.dense.cholesky import cholesky_program
from repro.experiments.reporting import format_table
from repro.platform.machines import small_hetero
from repro.runtime.faults import FaultModel, FaultStats
from repro.sweep import CallSpec, run_tasks

DEFAULT_RATES = (0.0, 0.02, 0.05, 0.1)
DEFAULT_SCHEDULERS = ("multiprio", "dmdas", "heteroprio")


@dataclass
class FaultSweepRow:
    """One (scheduler, failure-rate) cell of the sweep."""

    scheduler: str
    fault_rate: float
    makespan_us: float
    degradation: float  # relative to the scheduler's fault-free makespan
    stats: FaultStats


@dataclass
class FaultSweepResult:
    """The full sweep plus the fail-stop recovery column."""

    workload: str
    machine: str
    rows: list[FaultSweepRow]
    killed_rows: list[FaultSweepRow]


def _faults_cell(
    scheduler: str,
    n_tiles: int,
    tile_size: int,
    seed: int,
    scenario: str,
    rate: float,
    max_retries: int,
    kill_spec: tuple[tuple[int, float], ...],
    window: int | None = None,
) -> tuple[float, FaultStats]:
    """One (scheduler, fault scenario) run, executable in any process.

    ``scenario`` is ``"healthy"`` (no fault model — the degradation
    baseline), ``"rate"`` (transient failures at ``rate``) or ``"kill"``
    (the scripted fail-stop). Returns (makespan_us, stats).
    """
    machine = small_hetero(n_cpus=6, n_gpus=1, gpu_streams=2)
    program = cholesky_program(n_tiles, tile_size, with_priorities=False)
    if scenario == "healthy":
        fault_model = None
    elif scenario == "kill":
        fault_model = FaultModel(worker_kills=dict(kill_spec), seed=seed)
    elif rate == 0.0:
        fault_model = FaultModel(task_failure_rate=0.0, seed=seed)
    else:
        fault_model = FaultModel(
            task_failure_rate=rate, max_retries=max_retries, seed=seed
        )
    res = SimSpec(
        machine, scheduler,
        config=SimConfig(seed=seed, faults=fault_model,
                         submission_window=window),
    ).run(program)
    return res.makespan, res.faults or FaultStats()


def run_faults_sweep(
    n_tiles: int = 10,
    tile_size: int = 960,
    rates: tuple[float, ...] = DEFAULT_RATES,
    schedulers: tuple[str, ...] = DEFAULT_SCHEDULERS,
    seed: int = 0,
    max_retries: int = 10,
    kill_spec: tuple[tuple[int, float], ...] = ((6, 10_000.0),),
    window: int | None = None,
    jobs: int = 1,
    progress=None,
) -> FaultSweepResult:
    """Sweep transient failure rates (plus one fail-stop scenario).

    The platform is the Fig. 4 shape (6 CPU workers + 1 GPU) but with
    two GPU streams; ``kill_spec`` defaults to killing stream 0 (worker
    6) at t = 10 ms — a recoverable failure, since the sibling stream
    keeps the device memory alive. ``window`` forwards a submission
    window to every run, exercising the fault × window-accounting
    interaction (a rolled-back task keeps its submission slot until it
    finally completes). ``jobs`` fans the scenario grid out over worker
    processes.
    """
    scenarios: list[tuple[str, str, float]] = []
    for name in schedulers:
        scenarios.append((name, "healthy", 0.0))
        for rate in rates:
            scenarios.append((name, "rate", rate))
        scenarios.append((name, "kill", 0.0))
    tasks = [
        CallSpec(
            _faults_cell,
            (name, n_tiles, tile_size, seed, scenario, rate, max_retries,
             kill_spec, window),
        )
        for name, scenario, rate in scenarios
    ]
    outcomes = run_tasks(tasks, jobs=jobs, progress=progress)

    rows: list[FaultSweepRow] = []
    killed: list[FaultSweepRow] = []
    baselines: dict[str, float] = {}
    for (name, scenario, rate), (makespan, stats) in zip(scenarios, outcomes):
        if scenario == "healthy":
            baselines[name] = makespan
            continue
        row = FaultSweepRow(
            scheduler=name,
            fault_rate=rate,
            makespan_us=makespan,
            degradation=makespan / baselines[name] - 1.0,
            stats=stats,
        )
        (killed if scenario == "kill" else rows).append(row)
    machine = small_hetero(n_cpus=6, n_gpus=1, gpu_streams=2)
    program = cholesky_program(n_tiles, tile_size, with_priorities=False)
    return FaultSweepResult(
        workload=program.name,
        machine=machine.name,
        rows=rows,
        killed_rows=killed,
    )


def format_faults_sweep(result: FaultSweepResult) -> str:
    """Render the sweep as reporting tables."""
    rows = [
        [
            r.scheduler,
            f"{r.fault_rate * 100:.0f}%",
            f"{r.makespan_us / 1e3:.1f}",
            f"{r.degradation * 100:+.1f}%",
            f"{r.stats.task_failures}",
            f"{r.stats.retries}",
            f"{r.stats.wasted_exec_us / 1e3:.1f}",
        ]
        for r in result.rows
    ]
    out = format_table(
        ["scheduler", "fail rate", "makespan ms", "degradation", "failures", "retries", "wasted ms"],
        rows,
        title=f"Transient-failure sweep: {result.workload} on {result.machine}",
    )
    krows = [
        [
            r.scheduler,
            f"{r.makespan_us / 1e3:.1f}",
            f"{r.degradation * 100:+.1f}%",
            f"{r.stats.worker_failures}",
            f"{r.stats.tasks_recovered}",
            f"{r.stats.lost_replica_bytes / 2**20:.1f}",
        ]
        for r in result.killed_rows
    ]
    out += "\n\n" + format_table(
        ["scheduler", "makespan ms", "degradation", "worker deaths", "recovered", "lost MiB"],
        krows,
        title="Fail-stop recovery: one GPU stream killed at t=10ms",
    )
    return out
