"""Energy accounting and the energy/EDP-aware MultiPrio variants.

The paper's Section VII: *"we aim to extend this to incorporate energy
efficiency heuristics to take advantage of the CPUs and re-balance the
workload between them and the accelerators without compromising overall
performance."*

Three pieces:

* :class:`ArchPower` / :class:`PowerModel` (re-exported from
  :mod:`repro.runtime.power`, their canonical home since the power
  subsystem landed) plus :func:`energy_of_result`, a post-hoc view that
  bills any :class:`~repro.runtime.engine.SimResult` through the power
  subsystem's one joule sum (:func:`~repro.runtime.power.energy_report`)
  under :meth:`~repro.runtime.power.PowerStateModel.metering` — each
  worker's idle draw is clamped to its *live* horizon, so fail-stop
  casualties stop drawing at death;
* :class:`EnergyAwareMultiPrio`, which relaxes the pop condition for
  admissions that *save energy*: a slower-but-leaner worker (a CPU core
  at ~12 W vs a GPU at ~250 W) may take a task at a smaller fast-worker
  backlog than the baseline requires, as long as the comparative-
  advantage guard still holds. The effect — measured by
  ``benchmarks/bench_energy.py`` — is a lower joule count at a bounded
  makespan cost;
* ``EnergyAwareMultiPrio(objective="edp")`` (registered
  ``multiprio-edp``), the same relaxation scored on the energy-delay
  product δ²·P instead of plain energy δ·P: it only sheds work to lean
  units when the energy saved outweighs the quadratically-penalized
  slowdown, trading fewer joules of savings for a tighter makespan than
  ``multiprio-energy``.

For engine-level power states, node caps, per-job joules and native
joule reporting see :mod:`repro.runtime.power` (``SimConfig(power=...)``).
"""

from __future__ import annotations

from repro.schedulers.multiprio import MultiPrio
from repro.runtime.engine import SimResult
from repro.runtime.platform_config import Platform
from repro.runtime.power import ArchPower, PowerModel, PowerStateModel, energy_report
from repro.runtime.task import Task
from repro.runtime.worker import Worker
from repro.utils.validation import ValidationError, check_positive

__all__ = [
    "ArchPower",
    "PowerModel",
    "energy_of_result",
    "EnergyAwareMultiPrio",
]


def energy_of_result(
    result: SimResult, platform: Platform, power: PowerModel | None = None
) -> float:
    """Total energy (joules) consumed by a simulated execution.

    Per worker: the recorded busy time draws busy power, the rest of the
    worker's **live horizon** draws idle power. The horizon is
    ``min(makespan, death time)`` — exactly the clamp the engine applies
    to utilization — so a worker lost to a fail-stop failure stops
    drawing idle watts at its death rather than for the whole run. The
    sum is :func:`~repro.runtime.power.energy_report` under the
    metering model, the same one the engine's power ledger reports.

    ``result`` must come from ``platform``: its ``busy_us_by_worker``
    holds one entry per worker, indexed by worker id. A result from
    another platform raises :class:`ValidationError` instead of being
    billed against the wrong workers.
    """
    busy_by_worker = result.busy_us_by_worker
    if len(busy_by_worker) != len(platform.workers):
        raise ValidationError(
            f"result has busy times for {len(busy_by_worker)} workers but "
            f"the platform has {len(platform.workers)}: it was simulated "
            "on another platform"
        )
    return energy_report(
        PowerStateModel.metering(power),
        platform,
        {wid: {"full": busy} for wid, busy in enumerate(busy_by_worker)},
        result.makespan,
        result.death_us_by_worker,
    ).total_j


class EnergyAwareMultiPrio(MultiPrio):
    """MultiPrio with an energy-saving admission relaxation.

    A non-best worker whose execution would consume *less energy* than
    the best architecture's (δ·P comparison) is admitted at a fraction
    (``energy_relax``) of the baseline backlog requirement — shifting
    work toward low-power units exactly when the energy trade is
    favourable. All other mechanisms (heaps, scores, locality, eviction,
    the slowdown cap) are inherited unchanged: the relaxation only
    applies to admissions the base test *rejected on backlog*, so
    best-arch workers and the slowdown-cap guard behave exactly as in
    :class:`~repro.schedulers.multiprio.MultiPrio` (a neutral power
    model — equal watts everywhere — is bit-identical to the base
    scheduler; ``tests/extensions/test_energy.py`` pins this).

    ``objective`` selects the comparison: ``"energy"`` compares δ·P,
    ``"edp"`` the energy-delay product δ²·P, which penalizes a lean
    worker's extra delay quadratically so work only shifts off the
    accelerators when the joules saved are worth the slowdown. The
    scheduler's ``name`` is ``multiprio-<objective>``, its registry name.
    """

    def __init__(
        self,
        *,
        power: PowerModel | None = None,
        energy_relax: float = 0.25,
        objective: str = "energy",
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        if objective not in ("energy", "edp"):
            raise ValidationError(
                f"objective must be 'energy' or 'edp', got {objective!r}"
            )
        self.power = power or PowerModel()
        self.energy_relax = check_positive("energy_relax", energy_relax)
        self.objective = objective
        self.name = f"multiprio-{objective}"

    def _energy_saving(self, task: Task, worker: Worker, best_arch: str) -> bool:
        """Whether running on ``worker`` beats the best arch on the
        configured objective (δ·P for energy, δ²·P for EDP)."""
        ctx = self.ctx
        d_here = ctx.estimate(task, worker.arch)
        d_best = ctx.estimate(task, best_arch)
        p_here = self.power.arch_power(worker.arch).busy_watts
        p_best = self.power.arch_power(best_arch).busy_watts
        if self.objective == "edp":
            return d_here * d_here * p_here < d_best * d_best * p_best
        return d_here * p_here < d_best * p_best

    def _admission(self, task: Task, worker: Worker) -> tuple[bool, float | None, float]:
        """The base admission test plus the energy relaxation.

        Delegates to :meth:`MultiPrio._admission` first, so every base
        branch — best-arch early accept, eviction-disabled accept, the
        slowdown-cap rejection — is honoured verbatim. Only a *backlog*
        rejection (``brw`` was read and fell short) may be overturned:
        when this worker wins on the objective, the backlog requirement
        shrinks to ``energy_relax`` of the baseline.
        """
        admitted, brw, delta = super()._admission(task, worker)
        if admitted or brw is None:
            # Accepted outright, or rejected before the backlog was read
            # (slowdown cap): the relaxation honours the same cap, so
            # there is nothing to overturn.
            return admitted, brw, delta
        if not self._energy_saving(task, worker, self.ctx.best_arch(task)):
            return False, brw, delta
        return brw > self.energy_relax * self.brw_safety * delta, brw, delta
