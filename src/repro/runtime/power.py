"""DVFS power states, node power caps, and per-run energy accounting.

The paper's Section VII names energy efficiency as the intended
extension of multi-priority scheduling; this module makes it a
first-class engine subsystem and the one source of joules:

* :class:`ArchPower` / :class:`PowerModel` — per-architecture busy/idle
  watts per worker (the static draw profile, shared with the energy-
  aware schedulers);
* :class:`PowerState` — one DVFS operating point: a relative compute
  ``speed`` plus multipliers on the architecture's busy/idle watts.
  The default ladder is ``full`` / ``eco`` / ``sleep``;
* :class:`PowerStateModel` — the per-run configuration: the state
  ladder, the arch draw profile, optional **node power caps**, and the
  state workers idle in;
* :class:`PowerLedger` — the engine's per-run bookkeeping: state
  admission under the caps, per-worker busy-time charging, and the
  end-of-run :class:`EnergyReport`. Its :meth:`~PowerLedger.charge` is
  the only source of per-task (and so per-job) joules;
* :func:`energy_report` — the one per-worker busy/idle joule sum, used
  by :meth:`PowerLedger.finalize` and by the post-hoc view
  :func:`~repro.extensions.energy.energy_of_result`.

Semantics (see ``DESIGN.md`` §5i):

* a worker *executes* in the fastest runnable state (``speed > 0``)
  whose busy draw fits under its memory node's cap, given the draw
  already reserved by concurrently-executing workers on that node; a
  downgrade or delay emits a
  :class:`~repro.obs.events.PowerCapThrottled` provenance event;
* when even the leanest runnable state does not fit, execution *waits*
  until enough reserved draw is released (reservations release at the
  planned end of each execution, which is conservative when a fault
  aborts an attempt early) — the cap is a hard budget, never exceeded;
* execution duration divides by the chosen state's ``speed``: an
  ``eco`` worker is slower but leaner, the classic DVFS trade;
* idle workers draw the model's *idle state* watts
  (``idle_watts * idle_scale``), and a fail-stop-dead worker stops
  drawing at its death time;
* the caps budget **busy draw only** — the idle floor is not under the
  engine's control and is excluded from cap arithmetic;
* a model whose fastest runnable state is ``full`` (speed 1.0) with no
  caps never changes any schedule decision: the run is bit-identical
  to ``power=None`` (the ``power.noop`` differential enforces this);
  :meth:`PowerStateModel.metering` is the one way to meter a run
  without changing its schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.obs.events import PowerCapThrottled
from repro.utils.validation import (
    ValidationError,
    check_non_negative,
    check_positive,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.platform_config import Platform
    from repro.runtime.task import Task
    from repro.runtime.worker import Worker

@dataclass(frozen=True)
class ArchPower:
    """Per-worker power draw of one architecture, in watts."""

    busy_watts: float
    idle_watts: float

    def __post_init__(self) -> None:
        check_positive("busy_watts", self.busy_watts)
        check_non_negative("idle_watts", self.idle_watts)
        if self.idle_watts > self.busy_watts:
            raise ValueError("idle_watts cannot exceed busy_watts")


class PowerModel:
    """Power draw per architecture, per worker.

    Defaults approximate the evaluation platforms: one CPU core at 12 W
    busy / 3 W idle; one GPU execution context at 250 W busy / 50 W idle
    (a full device — divide by the stream count when modelling
    multi-stream sharing precisely; for scheduler comparisons the
    constant-per-worker approximation is sufficient and identical across
    policies).
    """

    DEFAULTS = {
        "cpu": ArchPower(busy_watts=12.0, idle_watts=3.0),
        "cuda": ArchPower(busy_watts=250.0, idle_watts=50.0),
    }

    def __init__(self, per_arch: dict[str, ArchPower] | None = None) -> None:
        self._per_arch = dict(self.DEFAULTS)
        if per_arch:
            self._per_arch.update(per_arch)

    def arch_power(self, arch: str) -> ArchPower:
        """Power profile of one architecture.

        Unknown architectures raise ``KeyError`` — a silently invented
        profile would corrupt every energy comparison on platforms with
        e.g. ``fpga`` workers.
        """
        got = self._per_arch.get(arch)
        if got is None:
            raise KeyError(
                f"no power profile for architecture {arch!r}; pass "
                f"per_arch={{{arch!r}: ArchPower(...)}}"
            )
        return got


@dataclass(frozen=True)
class PowerState:
    """One DVFS operating point of a worker.

    ``speed`` is the relative compute rate (execution time divides by
    it); ``speed == 0`` marks a pure idle state (``sleep``) that can
    never execute. ``busy_scale`` / ``idle_scale`` multiply the
    architecture's busy/idle watts while the worker occupies the state.
    """

    name: str
    speed: float = 1.0
    busy_scale: float = 1.0
    idle_scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("PowerState.name must be non-empty")
        for attr in ("speed", "busy_scale", "idle_scale"):
            v = getattr(self, attr)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0.0):
                raise ValidationError(
                    f"PowerState.{attr} must be finite and >= 0, got {v!r}"
                )
        if self.speed > 1.0:
            raise ValidationError(
                f"PowerState.speed must be <= 1 (1.0 = nominal), got {self.speed!r}"
            )

    @property
    def runnable(self) -> bool:
        """Whether a worker can execute tasks in this state."""
        return self.speed > 0.0


#: The default DVFS ladder: nominal, a leaner-but-slower operating point
#: (energy per op ~0.75x of full at 0.6x speed), and a deep idle state.
DEFAULT_STATES: tuple[PowerState, ...] = (
    PowerState("full", speed=1.0, busy_scale=1.0, idle_scale=1.0),
    PowerState("eco", speed=0.6, busy_scale=0.45, idle_scale=0.7),
    PowerState("sleep", speed=0.0, busy_scale=0.0, idle_scale=0.1),
)


@dataclass(frozen=True)
class PowerStateModel:
    """Per-run power configuration: state ladder, draw profile, caps.

    ``node_cap_watts`` is a hard budget on the *busy* draw of
    concurrently-executing workers per memory node: a single float caps
    every node identically, a mapping caps selected ``mid``s
    (missing nodes are uncapped). ``idle_state`` names the state idle
    workers occupy; the default is the lowest-``idle_scale`` state
    (``sleep`` on the default ladder).

    With no caps and a full-speed fastest state the model is *passive*:
    it meters energy without perturbing the schedule
    (:attr:`is_passive`).
    """

    states: tuple[PowerState, ...] = DEFAULT_STATES
    power: PowerModel = field(default_factory=PowerModel)
    node_cap_watts: float | Mapping[int, float] | None = None
    idle_state: str | None = None

    def __post_init__(self) -> None:
        states = tuple(self.states)
        object.__setattr__(self, "states", states)
        if not states:
            raise ValidationError("PowerStateModel.states must be non-empty")
        names = [s.name for s in states]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate PowerState names: {names}")
        if not any(s.runnable for s in states):
            raise ValidationError(
                "PowerStateModel needs at least one runnable state (speed > 0)"
            )
        if isinstance(self.node_cap_watts, (int, float)):
            check_positive("node_cap_watts", float(self.node_cap_watts))
        elif self.node_cap_watts is not None:
            for mid, cap in self.node_cap_watts.items():
                check_positive(f"node_cap_watts[{mid}]", float(cap))
        if self.idle_state is None:
            idle = min(states, key=lambda s: s.idle_scale)
            object.__setattr__(self, "idle_state", idle.name)
        elif self.idle_state not in names:
            raise ValidationError(
                f"idle_state {self.idle_state!r} is not one of {names}"
            )

    # -- derived views ---------------------------------------------------

    @property
    def run_states(self) -> tuple[PowerState, ...]:
        """Runnable states, fastest first (admission preference order)."""
        return tuple(
            sorted(
                (s for s in self.states if s.runnable),
                key=lambda s: -s.speed,
            )
        )

    @property
    def idle_scale(self) -> float:
        """The idle-state multiplier on each architecture's idle watts."""
        return self.state(self.idle_state).idle_scale

    @property
    def is_passive(self) -> bool:
        """True when the model can never alter a schedule decision:
        no caps, and the preferred run state is full speed."""
        return self.node_cap_watts is None and self.run_states[0].speed == 1.0

    def state(self, name: str) -> PowerState:
        for s in self.states:
            if s.name == name:
                return s
        raise KeyError(f"no power state named {name!r}")

    def cap_of(self, mid: int) -> float:
        """The busy-draw cap of memory node ``mid`` (inf = uncapped)."""
        caps = self.node_cap_watts
        if caps is None:
            return math.inf
        if isinstance(caps, (int, float)):
            return float(caps)
        return float(caps.get(mid, math.inf))

    @classmethod
    def metering(cls, power: PowerModel | None = None) -> "PowerStateModel":
        """A single-``full``-state, uncapped model: meters energy with
        zero schedule impact, idle billed at the architecture's full
        idle watts (:func:`~repro.extensions.energy.energy_of_result`
        bills under it)."""
        return cls(states=(PowerState("full"),), power=power or PowerModel())


@dataclass(frozen=True)
class WorkerEnergy:
    """End-of-run energy view of one worker."""

    wid: int
    arch: str
    #: Busy microseconds per power-state name.
    busy_us_by_state: dict[str, float]
    busy_us: float
    idle_us: float
    #: The worker's live timeline: ``min(makespan, death time)``.
    horizon_us: float
    joules: float


@dataclass(frozen=True)
class EnergyReport:
    """End-of-run energy accounting (``SimResult.energy``)."""

    total_j: float
    busy_j: float
    idle_j: float
    #: Per-architecture rollup: busy_us / idle_us / joules.
    by_arch: dict[str, dict[str, float]]
    by_worker: tuple[WorkerEnergy, ...]
    #: Cap interventions: state downgrades or delayed starts.
    n_throttled: int
    #: Total execution-start delay imposed by the caps, µs.
    throttle_delay_us: float

    def as_dict(self) -> dict[str, Any]:
        """Flat JSON-ready mapping (per-worker detail omitted)."""
        return {
            "total_j": self.total_j,
            "busy_j": self.busy_j,
            "idle_j": self.idle_j,
            "n_throttled": float(self.n_throttled),
            "throttle_delay_us": self.throttle_delay_us,
            "by_arch": {a: dict(v) for a, v in self.by_arch.items()},
        }


def energy_report(
    model: PowerStateModel,
    platform: "Platform",
    busy_us_by_state: Mapping[int, Mapping[str, float]],
    makespan: float,
    death_time: Mapping[int, float],
    n_throttled: int = 0,
    throttle_delay_us: float = 0.0,
) -> EnergyReport:
    """Whole-run joules from per-worker busy time per power state.

    Per worker: busy time accrued per state draws the state-scaled
    busy watts; the rest of the worker's *live* horizon
    (``min(makespan, death time)``) draws the idle state's scaled
    idle watts. Joules are summed per worker, then per architecture
    — additivity across workers is exact by construction and audited
    by the checker's ``energy`` family.
    """
    idle_scale = model.idle_scale
    state_order = [s.name for s in model.states]
    by_arch: dict[str, dict[str, float]] = {}
    by_worker: list[WorkerEnergy] = []
    total_j = 0.0
    busy_j = 0.0
    for arch in platform.archs:
        profile = model.power.arch_power(arch)
        arch_busy_us = 0.0
        arch_idle_us = 0.0
        arch_j = 0.0
        for w in platform.workers_of_arch(arch):
            per_state = busy_us_by_state[w.wid]
            horizon = min(makespan, death_time.get(w.wid, makespan))
            busy_us = 0.0
            busy_wus = 0.0  # watt-microseconds
            for name in state_order:
                us = per_state.get(name)
                if us is None:
                    continue
                busy_us += us
                busy_wus += us * profile.busy_watts * model.state(name).busy_scale
            idle_us = max(0.0, horizon - busy_us)
            joules = (
                busy_wus + idle_us * profile.idle_watts * idle_scale
            ) * 1e-6
            by_worker.append(WorkerEnergy(
                wid=w.wid,
                arch=arch,
                busy_us_by_state=dict(per_state),
                busy_us=busy_us,
                idle_us=idle_us,
                horizon_us=horizon,
                joules=joules,
            ))
            arch_busy_us += busy_us
            arch_idle_us += idle_us
            arch_j += joules
            total_j += joules
            busy_j += busy_wus * 1e-6
        by_arch[arch] = {
            "busy_us": arch_busy_us,
            "idle_us": arch_idle_us,
            "joules": arch_j,
        }
    return EnergyReport(
        total_j=total_j,
        busy_j=busy_j,
        idle_j=total_j - busy_j,
        by_arch=by_arch,
        by_worker=tuple(sorted(by_worker, key=lambda we: we.wid)),
        n_throttled=n_throttled,
        throttle_delay_us=throttle_delay_us,
    )


class PowerLedger:
    """Per-run power bookkeeping for one :class:`PowerStateModel`.

    A run hook of the engine (``DESIGN.md`` §4). At the start gate,
    :meth:`gate` picks the execution state under the node caps through
    :meth:`admit` (possibly delaying the start and stretching the
    duration) and :meth:`book` reserves the chosen draw until the
    planned end; :meth:`charge` accrues per-worker busy time per state,
    and :meth:`finalize` folds it all into an :class:`EnergyReport`.
    The invariant checker's ``energy`` family calls :meth:`audit`: the
    reservations against the caps, and the counters' monotonicity.
    """

    __slots__ = (
        "model", "platform", "emit", "run_states", "active",
        "busy_us_by_state", "busy_us_total",
        "n_admissions", "n_throttled", "throttle_delay_us",
        "_busy_watts", "_floor_watts", "_audit_floor",
    )
    #: The :class:`~repro.runtime.engine.SimResult` field :meth:`finalize` fills.
    result_field = "energy"

    def __init__(
        self, model: PowerStateModel, platform: "Platform",
        emit: Callable | None = None,
    ) -> None:
        self.model = model
        self.platform = platform
        #: Event sink for :class:`~repro.obs.events.PowerCapThrottled`
        #: (the run's ``Observability.emit``), or ``None``.
        self.emit = emit
        self.run_states = model.run_states
        #: Per-node reserved busy draw:
        #: ``mid -> [(end_us, watts, start_us), ...]``.
        self.active: dict[int, list[tuple[float, float, float]]] = {
            node.mid: [] for node in platform.nodes
        }
        self.busy_us_by_state: dict[int, dict[str, float]] = {
            w.wid: {} for w in platform.workers
        }
        self.busy_us_total = 0.0
        self.n_admissions = 0
        self.n_throttled = 0
        self.throttle_delay_us = 0.0
        # Monotone floor of (admissions, throttles, throttle delay, busy
        # total) as of the last audit.
        self._audit_floor = (0, 0, 0.0, 0.0)
        # Base busy watts per architecture; every arch on the platform
        # must have a profile (KeyError here beats silent corruption).
        self._busy_watts = {
            arch: model.power.arch_power(arch).busy_watts
            for arch in platform.archs
        }
        self._floor_watts = {
            arch: min(bw * s.busy_scale for s in self.run_states)
            for arch, bw in self._busy_watts.items()
        }
        # Feasibility: the leanest runnable state of every arch must fit
        # its node's cap alone, or capped execution could never start.
        for node in platform.nodes:
            cap = model.cap_of(node.mid)
            if cap == math.inf:
                continue
            for w in platform.workers_of_node(node.mid):
                floor = self._floor_watts[w.arch]
                if floor > cap + 1e-9:
                    raise ValidationError(
                        f"node {node.name!r} cap {cap} W is below the leanest "
                        f"runnable draw of its {w.arch} workers ({floor} W); "
                        "no execution could ever be admitted"
                    )

    # -- admission under the caps ----------------------------------------

    def admit(self, worker: "Worker", at: float) -> tuple[PowerState, float]:
        """Choose the execution state for ``worker`` starting at ``at``.

        Returns ``(state, start)`` with ``start >= at``: the fastest
        runnable state whose draw fits under the node cap now, or — when
        nothing fits — the earliest later start at which the leanest
        state fits (re-upgraded to the fastest state that fits then).
        """
        self.n_admissions += 1
        states = self.run_states
        preferred = states[0]
        cap = self.model.cap_of(worker.memory_node)
        if cap == math.inf:
            return preferred, at
        reserved = self.active[worker.memory_node]
        if reserved:
            alive = [r for r in reserved if r[0] > at]
            if len(alive) != len(reserved):
                reserved[:] = alive
        bw = self._busy_watts[worker.arch]
        usage = sum(w for _, w, _ in reserved)
        for state in states:
            if usage + bw * state.busy_scale <= cap + 1e-9:
                if state is not preferred:
                    self.n_throttled += 1
                return state, at
        # Nothing fits now: wait until the leanest state does (releases
        # only free budget going forward — later reservations commit in
        # event order and will see this one).
        floor = self._floor_watts[worker.arch]
        start = at
        for end, watts, _ in sorted(reserved):
            usage -= watts
            start = end
            if usage + floor <= cap + 1e-9:
                break
        chosen = states[-1]
        for state in states:
            if usage + bw * state.busy_scale <= cap + 1e-9:
                chosen = state
                break
        self.n_throttled += 1
        self.throttle_delay_us += start - at
        return chosen, start

    def gate(
        self, task: "Task", worker: "Worker", now: float, start: float, duration: float
    ) -> tuple[float, float]:
        """Admit ``task`` on ``worker`` from ``start``: the admitted start
        and the duration divided by the state's ``speed``. The state is
        kept in ``task.sched["_pstate"]``; a downgrade or delay emits a
        :class:`~repro.obs.events.PowerCapThrottled` stamped ``now``."""
        pstate, pstart = self.admit(worker, start)
        if pstate.speed != 1.0:
            duration = duration / pstate.speed
        if self.emit is not None and (
            pstart > start or pstate is not self.run_states[0]
        ):
            self.emit(PowerCapThrottled(
                now, task.tid, worker.wid, worker.memory_node, pstate.name,
                self.model.cap_of(worker.memory_node), pstart - start,
            ))
        task.sched["_pstate"] = pstate
        return pstart, duration

    def book(
        self, task: "Task", worker: "Worker", start: float, end: float
    ) -> None:
        """Reserve ``task``'s admitted draw on the worker's node over
        ``[start, end)``."""
        if self.model.cap_of(worker.memory_node) == math.inf:
            return
        self.active[worker.memory_node].append((
            end,
            self._busy_watts[worker.arch] * task.sched["_pstate"].busy_scale,
            start,
        ))

    def node_draw(self, mid: int, now: float) -> float:
        """Busy draw actually flowing on node ``mid`` at time ``now``:
        the sum over reservations whose span covers ``now`` (a
        delayed-start reservation draws nothing before its start). The
        invariant checker audits this against the node's cap."""
        return sum(
            w for end, w, start in self.active[mid] if start <= now < end
        )

    # -- energy accrual ---------------------------------------------------

    def charge(self, task: "Task", worker: "Worker", busy_us: float) -> float:
        """Accrue ``busy_us`` of ``task``'s attempt in its admitted state
        and return its joules, also kept in ``task.sched["_energy_j"]``:
        the only per-task joules, which per-job attribution sums (a
        failed or killed attempt's rollback clears it, so only
        completions keep one)."""
        state = task.sched["_pstate"]
        per_state = self.busy_us_by_state[worker.wid]
        per_state[state.name] = per_state.get(state.name, 0.0) + busy_us
        self.busy_us_total += busy_us
        joules = busy_us * self._busy_watts[worker.arch] * state.busy_scale * 1e-6
        task.sched["_energy_j"] = joules
        return joules

    def finalize(
        self, makespan: float, death_time: Mapping[int, float]
    ) -> EnergyReport:
        """The end-of-run :class:`EnergyReport` (see :func:`energy_report`)."""
        return energy_report(
            self.model, self.platform, self.busy_us_by_state, makespan,
            death_time, self.n_throttled, self.throttle_delay_us,
        )

    def stats(self) -> dict[str, float]:
        """Counters for :class:`~repro.runtime.engine.SimResult.rt_stats`."""
        return {
            "power_n_admissions": float(self.n_admissions),
            "power_n_throttled": float(self.n_throttled),
            "power_throttle_delay_us": self.throttle_delay_us,
            "power_busy_us": self.busy_us_total,
        }

    def audit(self, now: float) -> list[tuple[str, str]]:
        """``energy`` violations at clock ``now``: draw over a node cap,
        busy time beyond the clock or not adding up across workers (the
        joule report's additivity rests on it), counters moving back."""
        out = []
        for node in self.platform.nodes:
            cap = self.model.cap_of(node.mid)
            if cap == math.inf:
                continue
            draw = self.node_draw(node.mid, now)
            if draw > cap + 1e-6:
                out.append((
                    "energy",
                    f"node {node.name!r} draws {draw} W at t={now}us, over "
                    f"its {cap} W cap",
                ))
        clock_slack = now + 1e-6
        per_worker_sum = 0.0
        for wid, per_state in self.busy_us_by_state.items():
            busy = sum(per_state.values())
            per_worker_sum += busy
            if busy > clock_slack:
                out.append((
                    "energy",
                    f"worker {wid} accrued {busy}us busy but only {now}us "
                    f"elapsed",
                ))
        if abs(per_worker_sum - self.busy_us_total) > 1e-6 + 1e-9 * per_worker_sum:
            out.append((
                "energy",
                f"busy time leaked: per-worker states sum to "
                f"{per_worker_sum}us but the ledger total is "
                f"{self.busy_us_total}us",
            ))
        counters = (
            self.n_admissions, self.n_throttled,
            self.throttle_delay_us, self.busy_us_total,
        )
        floor = self._audit_floor
        if any(c < f for c, f in zip(counters, floor)):
            out.append((
                "energy",
                f"power counters moved backward: {floor} -> {counters}",
            ))
        else:
            self._audit_floor = counters
        if self.n_throttled > self.n_admissions:
            out.append((
                "energy",
                f"{self.n_throttled} throttles recorded over only "
                f"{self.n_admissions} admissions",
            ))
        return out
