"""Fig. 4 reproduction: the eviction-mechanism ablation.

The paper simulates (StarPU over SimGrid) a Cholesky factorization of a
960 x 20-tile matrix on a node with 1 GPU and 6 CPU workers, and
compares MultiPrio with and without the eviction mechanism: without it,
slow workers grab critical tasks near the end of the run and the GPU
idles (29% idle); with it the GPU idle drops to 1% and the makespan
shrinks.

We reproduce the full setup: same workload, same platform shape, per-
resource idle percentages, makespans, and the practical critical path.
The Gantt and critical path come from the observability event stream
(``record_level="decisions"``) through :mod:`repro.obs.export`, the idle
fractions are the engine's own ``idle_frac_by_arch``, and the decision
counts expose how often the pop condition actually fired.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.dense.cholesky import cholesky_program
from repro.schedulers.multiprio import MultiPrio
from repro.obs.export import decision_counts, trace_from_events
from repro.platform.machines import fig4_machine
from repro.runtime.engine import Simulator
from repro.runtime.perfmodel import AnalyticalPerfModel
from repro.runtime.trace import Trace


@dataclass
class Fig4Variant:
    """One trace of the ablation (with or without eviction)."""

    label: str
    makespan_us: float
    gpu_idle_frac: float
    cpu_idle_frac: float
    critical_path_len: int
    trace: Trace
    decisions: dict[str, int] = field(default_factory=dict)


@dataclass
class Fig4Result:
    """Both variants plus the headline deltas."""

    with_eviction: Fig4Variant
    without_eviction: Fig4Variant

    @property
    def gpu_idle_reduction(self) -> float:
        """Idle-fraction drop the eviction mechanism buys on the GPU."""
        return self.without_eviction.gpu_idle_frac - self.with_eviction.gpu_idle_frac

    @property
    def makespan_gain(self) -> float:
        """Relative makespan improvement from the eviction mechanism."""
        return 1.0 - self.with_eviction.makespan_us / self.without_eviction.makespan_us


def run_fig4(n_tiles: int = 20, tile_size: int = 960, seed: int = 0) -> Fig4Result:
    """Run the ablation on the paper's workload (Cholesky 960 x 20)."""
    machine = fig4_machine()
    program = cholesky_program(n_tiles, tile_size, with_priorities=False)
    variants: dict[bool, Fig4Variant] = {}
    for eviction in (True, False):
        scheduler = MultiPrio(eviction=eviction)
        sim = Simulator(
            machine.platform(),
            scheduler,
            AnalyticalPerfModel(machine.calibration()),
            seed=seed,
            record_level="decisions",
        )
        res = sim.run(program)
        assert res.events is not None
        trace = trace_from_events(res.events, sim.platform.workers)
        idle = res.idle_frac_by_arch
        pcp = trace.practical_critical_path(program.tasks)
        variants[eviction] = Fig4Variant(
            label="with eviction" if eviction else "without eviction",
            makespan_us=res.makespan,
            gpu_idle_frac=idle.get("cuda", 0.0),
            cpu_idle_frac=idle.get("cpu", 0.0),
            critical_path_len=len(pcp),
            trace=trace,
            decisions=decision_counts(res.events),
        )
    return Fig4Result(with_eviction=variants[True], without_eviction=variants[False])


def format_fig4(result: Fig4Result, *, gantt: bool = False) -> str:
    """Render the ablation summary (optionally with ASCII Gantt charts)."""
    lines = ["Fig. 4: eviction mechanism ablation (Cholesky 960x20, 1 GPU + 6 CPUs)"]
    for variant in (result.without_eviction, result.with_eviction):
        lines.append(
            f"  {variant.label:18s} makespan = {variant.makespan_us / 1e3:9.1f} ms   "
            f"GPU idle = {variant.gpu_idle_frac * 100:5.1f}%   "
            f"CPU idle = {variant.cpu_idle_frac * 100:5.1f}%   "
            f"practical CP = {variant.critical_path_len} tasks"
        )
        if variant.decisions:
            lines.append(
                "  " + " " * 18 + "decisions: "
                + ", ".join(f"{a}={n}" for a, n in sorted(variant.decisions.items()))
            )
    lines.append(
        f"  eviction gains: GPU idle -{result.gpu_idle_reduction * 100:.1f} points, "
        f"makespan -{result.makespan_gain * 100:.1f}%  "
        "(paper: GPU idle 29% -> 1%)"
    )
    if gantt:
        for variant in (result.without_eviction, result.with_eviction):
            lines.append(f"\n--- {variant.label} ---")
            lines.append(variant.trace.gantt_ascii(width=96))
    return "\n".join(lines)
