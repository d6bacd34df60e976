"""Power subsystem: states, node caps, the ledger, engine integration.

Covers the DVFS state ladder and its validation, cap admission
(downgrades, delayed starts, the feasibility floor), per-worker energy
accounting with fail-stop horizon clamping, the ``PowerCapThrottled``
provenance event, and the hypothesis properties the accounting must
satisfy (busy + idle = live horizon; joules monotone in busy watts;
engine metering bit-identical to the post-hoc conversion).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.check.differential import fingerprint
from repro.extensions.energy import energy_of_result
from repro.obs.events import PowerCapThrottled
from repro.platform.machines import small_hetero
from repro.runtime.engine import Simulator
from repro.runtime.faults import FaultModel
from repro.runtime.perfmodel import AnalyticalPerfModel
from repro.runtime.power import (
    ArchPower,
    PowerLedger,
    PowerModel,
    PowerState,
    PowerStateModel,
)
from repro.runtime.stf import TaskFlow
from repro.runtime.task import AccessMode, Task
from repro.schedulers.registry import make_scheduler
from repro.utils.validation import ValidationError
from tests.conftest import make_fork_join_program


class TestPowerState:
    def test_defaults_are_nominal(self):
        s = PowerState("full")
        assert s.speed == 1.0 and s.busy_scale == 1.0 and s.runnable

    def test_sleep_is_not_runnable(self):
        assert not PowerState("sleep", speed=0.0).runnable

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"name": "x", "speed": -0.1},
            {"name": "x", "speed": 1.5},
            {"name": "x", "busy_scale": float("nan")},
            {"name": "x", "idle_scale": float("inf")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValidationError):
            PowerState(**kwargs)


class TestPowerStateModel:
    def test_default_ladder(self):
        model = PowerStateModel()
        assert [s.name for s in model.run_states] == ["full", "eco"]
        assert model.idle_state == "sleep"  # lowest idle_scale
        assert model.is_passive

    def test_caps_break_passivity(self):
        assert not PowerStateModel(node_cap_watts=100.0).is_passive

    def test_slow_fastest_state_breaks_passivity(self):
        model = PowerStateModel(states=(PowerState("eco", speed=0.6),))
        assert not model.is_passive

    def test_cap_of(self):
        assert PowerStateModel().cap_of(0) == float("inf")
        assert PowerStateModel(node_cap_watts=50.0).cap_of(3) == 50.0
        mapped = PowerStateModel(node_cap_watts={1: 30.0})
        assert mapped.cap_of(1) == 30.0
        assert mapped.cap_of(0) == float("inf")

    def test_metering_is_passive_single_state(self):
        model = PowerStateModel.metering()
        assert model.is_passive
        assert [s.name for s in model.states] == ["full"]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"states": ()},
            {"states": (PowerState("a"), PowerState("a"))},
            {"states": (PowerState("sleep", speed=0.0),)},
            {"idle_state": "nope"},
            {"node_cap_watts": -1.0},
            {"node_cap_watts": {0: 0.0}},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValidationError):
            PowerStateModel(**kwargs)


class TestPowerLedger:
    def platform(self, n_cpus=2, n_gpus=1):
        return small_hetero(n_cpus=n_cpus, n_gpus=n_gpus).platform()

    def cpu_workers(self, platform):
        return platform.workers_of_arch("cpu")

    def admitted(self, state, tid=0):
        """A task admitted in ``state``, as the ledger's gate leaves it."""
        task = Task(tid, "t")
        task.sched["_pstate"] = state
        return task

    def test_uncapped_admits_fastest_immediately(self):
        plat = self.platform()
        led = PowerLedger(PowerStateModel(), plat)
        state, start = led.admit(plat.workers[0], 5.0)
        assert state.name == "full" and start == 5.0
        assert led.n_throttled == 0

    def test_cap_downgrades_to_eco(self):
        plat = self.platform()
        # cpu node: full draws 12 W; two fulls (24 W) exceed a 20 W cap,
        # but full + eco (12 + 5.4) fits.
        led = PowerLedger(PowerStateModel(node_cap_watts={0: 20.0}), plat)
        w0, w1 = self.cpu_workers(plat)[:2]
        s0, t0 = led.admit(w0, 0.0)
        led.book(self.admitted(s0), w0, t0, 100.0)
        assert s0.name == "full"
        s1, t1 = led.admit(w1, 0.0)
        assert s1.name == "eco" and t1 == 0.0
        assert led.n_throttled == 1
        assert led.throttle_delay_us == 0.0

    def test_cap_delays_when_nothing_fits(self):
        plat = self.platform()
        # Single-state ladder: no leaner state to fall back to, so the
        # second admission must wait for the first reservation's end.
        model = PowerStateModel(
            states=(PowerState("full"),), node_cap_watts={0: 12.0}
        )
        led = PowerLedger(model, plat)
        w0, w1 = self.cpu_workers(plat)[:2]
        s0, _ = led.admit(w0, 0.0)
        led.book(self.admitted(s0), w0, 0.0, 100.0)
        s1, t1 = led.admit(w1, 40.0)
        assert s1.name == "full" and t1 == 100.0
        assert led.n_throttled == 1
        assert led.throttle_delay_us == pytest.approx(60.0)

    def test_gate_stretches_and_reports_a_downgrade(self):
        plat = self.platform()
        events = []
        led = PowerLedger(
            PowerStateModel(node_cap_watts={0: 20.0}), plat, events.append
        )
        w0, w1 = self.cpu_workers(plat)[:2]
        t0, t1 = Task(0, "t"), Task(1, "t")
        assert led.gate(t0, w0, 0.0, 0.0, 60.0) == (0.0, 60.0)
        led.book(t0, w0, 0.0, 60.0)
        assert events == []  # full state at the requested start
        start, duration = led.gate(t1, w1, 0.0, 0.0, 60.0)
        assert t1.sched["_pstate"].name == "eco"
        assert (start, duration) == (0.0, pytest.approx(100.0))  # speed 0.6
        assert [(e.tid, e.wid, e.state, e.delay_us) for e in events] == [
            (1, w1.wid, "eco", 0.0)
        ]

    def test_node_draw_excludes_unstarted_reservations(self):
        plat = self.platform()
        model = PowerStateModel(
            states=(PowerState("full"),), node_cap_watts={0: 12.0}
        )
        led = PowerLedger(model, plat)
        w0, w1 = self.cpu_workers(plat)[:2]
        led.book(self.admitted(model.states[0], 0), w0, 0.0, 100.0)
        led.book(self.admitted(model.states[0], 1), w1, 100.0, 200.0)  # delayed start
        assert led.node_draw(0, 50.0) == pytest.approx(12.0)
        assert led.node_draw(0, 150.0) == pytest.approx(12.0)
        assert led.node_draw(0, 250.0) == 0.0

    def test_charge_accrues_per_state(self):
        plat = self.platform()
        led = PowerLedger(PowerStateModel(), plat)
        w = self.cpu_workers(plat)[0]
        full = led.run_states[0]
        joules = led.charge(self.admitted(full), w, 1e6)  # 1 s busy at 12 W
        assert joules == pytest.approx(12.0)
        assert led.busy_us_by_state[w.wid] == {"full": 1e6}
        assert led.busy_us_total == 1e6

    def test_finalize_clamps_dead_worker_horizon(self):
        plat = self.platform()
        led = PowerLedger(PowerStateModel.metering(), plat)
        report = led.finalize(1000.0, {0: 200.0})
        by_wid = {we.wid: we for we in report.by_worker}
        assert by_wid[0].horizon_us == 200.0
        assert by_wid[0].idle_us == 200.0
        assert by_wid[1].horizon_us == 1000.0

    def test_infeasible_cap_rejected(self):
        plat = self.platform()
        # The cpu eco floor is 12 * 0.45 = 5.4 W; a 4 W cap can never
        # admit any execution.
        with pytest.raises(ValidationError, match="leanest"):
            PowerLedger(PowerStateModel(node_cap_watts={0: 4.0}), plat)

    def test_unknown_arch_profile_rejected(self):
        # A draw profile missing one of the platform's architectures
        # must fail at ledger construction, not mid-run.
        plat = self.platform()
        bare = PowerModel.__new__(PowerModel)
        bare._per_arch = {"cpu": ArchPower(12.0, 3.0)}
        with pytest.raises(KeyError, match="cuda"):
            PowerLedger(PowerStateModel(power=bare), plat)


class TestEnginePower:
    def run(self, program, machine=None, scheduler="multiprio", **cfg):
        machine = machine or small_hetero(n_cpus=4, n_gpus=1)
        cfg.setdefault("record_level", "tasks")
        sim = Simulator(
            machine.platform(),
            make_scheduler(scheduler),
            AnalyticalPerfModel(machine.calibration()),
            seed=0,
            **cfg,
        )
        return sim.run(program), sim

    def test_metering_is_bit_identical(self):
        program = make_fork_join_program(width=8, flops=5e8)
        plain, _ = self.run(program)
        metered, _ = self.run(program, power=PowerStateModel.metering())
        assert fingerprint(plain) == fingerprint(metered)
        assert plain.energy is None
        assert metered.energy is not None and metered.energy.total_j > 0

    def test_metering_matches_energy_of_result_bitwise(self):
        program = make_fork_join_program(width=8, flops=5e8)
        res, sim = self.run(program, power=PowerStateModel.metering())
        assert res.energy.total_j == energy_of_result(res, sim.platform)

    def test_eco_only_ladder_slows_execution(self):
        program = make_fork_join_program(width=6, flops=5e8)
        base, _ = self.run(program)
        eco, _ = self.run(
            program,
            power=PowerStateModel(
                states=(PowerState("eco", speed=0.5, busy_scale=0.4),)
            ),
        )
        # Every execution takes 2x as long at half speed.
        assert eco.makespan > base.makespan * 1.5

    def test_cap_emits_throttle_events_and_stays_under_cap(self):
        program = make_fork_join_program(width=24, flops=5e8)
        cap = 20.0
        res, _ = self.run(
            program, scheduler="eager",
            power=PowerStateModel(node_cap_watts={0: cap}),
            record_level="tasks",
            check_invariants=True,
        )
        throttles = [
            e for e in res.events if isinstance(e, PowerCapThrottled)
        ]
        assert throttles
        for ev in throttles:
            assert ev.node == 0
            assert ev.cap_watts == cap
            assert ev.state in ("full", "eco")
            assert ev.delay_us >= 0.0
        assert res.energy.n_throttled == len(throttles)
        assert res.rt_stats["power_n_throttled"] == len(throttles)

    def test_dead_worker_stops_drawing_idle(self):
        """Satellite regression: a fail-stop casualty must not draw
        idle watts between its death and the end of the run."""
        program = make_fork_join_program(width=16, flops=5e8)
        alive, sim_a = self.run(program, power=PowerStateModel.metering())
        kill_at = alive.makespan * 0.25
        dead, sim_d = self.run(
            program, power=PowerStateModel.metering(),
            fault_model=FaultModel(worker_kills={0: kill_at}),
        )
        by_wid = {we.wid: we for we in dead.energy.by_worker}
        assert by_wid[0].horizon_us == pytest.approx(
            min(dead.makespan, kill_at)
        )
        # The engine's report and the post-hoc conversion must agree on
        # the clamp (both charge the casualty only up to its death).
        assert dead.energy.total_j == energy_of_result(dead, sim_d.platform)

    def test_power_stats_reported(self):
        program = make_fork_join_program(width=6, flops=5e8)
        res, _ = self.run(program, power=PowerStateModel())
        stats = res.rt_stats
        assert stats["power_n_admissions"] == len(program.tasks)
        assert stats["power_busy_us"] > 0.0
        assert res.busy_us_by_worker
        assert sum(res.busy_us_by_worker) == pytest.approx(
            stats["power_busy_us"]
        )


# -- hypothesis properties ---------------------------------------------------

MODES = [AccessMode.R, AccessMode.W, AccessMode.RW]
IMPLS = [("cpu",), ("cuda",), ("cpu", "cuda")]

submission = st.tuples(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 2)),
        min_size=1,
        max_size=3,
        unique_by=lambda t: t[0],
    ),
    st.sampled_from(IMPLS),
    st.floats(min_value=1e6, max_value=5e8),
)

programs = st.lists(submission, min_size=1, max_size=20)


def build_program(submissions):
    flow = TaskFlow("random")
    handles = [flow.data(1024 * (i + 1), label=f"h{i}") for i in range(6)]
    for accesses, impls, flops in submissions:
        flow.submit(
            "kernel",
            [(handles[h], MODES[m]) for h, m in accesses],
            flops=flops,
            implementations=impls,
        )
    return flow.program()


def _metered_run(submissions, power=None):
    machine = small_hetero(n_cpus=2, n_gpus=1)
    sim = Simulator(
        machine.platform(),
        make_scheduler("multiprio"),
        AnalyticalPerfModel(machine.calibration()),
        seed=0,
        power=PowerStateModel.metering(power),
    )
    return sim.run(build_program(submissions)), sim


@given(programs)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_busy_plus_idle_covers_each_live_horizon(submissions):
    """Per worker: busy + idle microseconds equal the live horizon, and
    the per-arch rollup sums its workers exactly."""
    res, sim = _metered_run(submissions)
    by_arch_busy: dict[str, float] = {}
    for we in res.energy.by_worker:
        assert we.busy_us + we.idle_us == pytest.approx(we.horizon_us)
        assert we.busy_us <= we.horizon_us + 1e-6
        by_arch_busy[we.arch] = by_arch_busy.get(we.arch, 0.0) + we.busy_us
    for arch, entry in res.energy.by_arch.items():
        assert entry["busy_us"] == pytest.approx(by_arch_busy.get(arch, 0.0))
    # Joules are additive across workers.
    assert res.energy.total_j == pytest.approx(
        sum(we.joules for we in res.energy.by_worker)
    )


@given(programs, st.floats(min_value=1.1, max_value=8.0))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_total_joules_monotone_in_busy_watts(submissions, factor):
    """Scaling every busy draw up (idle fixed) can only cost joules."""
    base, _ = _metered_run(submissions)
    hotter = PowerModel({
        arch: ArchPower(profile.busy_watts * factor, profile.idle_watts)
        for arch, profile in PowerModel.DEFAULTS.items()
    })
    hot, _ = _metered_run(submissions, power=hotter)
    assert hot.makespan == base.makespan  # metering never moves the run
    assert hot.energy.total_j >= base.energy.total_j - 1e-12


@given(programs)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_metering_matches_post_hoc_conversion_bitwise(submissions):
    """The engine's joule total equals energy_of_result bit for bit."""
    res, sim = _metered_run(submissions)
    assert res.energy.total_j == energy_of_result(res, sim.platform)
