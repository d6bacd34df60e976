"""Energy extension tests: accounting and the energy-aware scheduler."""

import pytest

from repro.analysis.validation import check_schedule
from repro.check.differential import fingerprint
from repro.extensions.energy import (
    ArchPower,
    EnergyAwareMultiPrio,
    PowerModel,
    energy_of_result,
)
from repro.runtime.engine import Simulator
from repro.runtime.faults import FaultModel
from repro.runtime.perfmodel import AnalyticalPerfModel
from repro.schedulers.registry import make_scheduler
from tests.conftest import make_fork_join_program


class TestArchPower:
    def test_validation(self):
        with pytest.raises(Exception):
            ArchPower(busy_watts=0.0, idle_watts=0.0)
        with pytest.raises(ValueError):
            ArchPower(busy_watts=10.0, idle_watts=20.0)


class TestPowerModel:
    def test_defaults(self):
        model = PowerModel()
        assert model.arch_power("cuda").busy_watts > model.arch_power("cpu").busy_watts

    def test_override(self):
        model = PowerModel({"cpu": ArchPower(20.0, 5.0)})
        assert model.arch_power("cpu").busy_watts == 20.0
        assert model.arch_power("cuda").busy_watts == 250.0

    def test_unknown_arch_raises(self):
        # A silently invented profile would corrupt every comparison on
        # platforms with e.g. fpga workers; unknown archs must raise.
        with pytest.raises(KeyError, match="tpu"):
            PowerModel().arch_power("tpu")

    def test_unknown_arch_explicit_default(self):
        fallback = ArchPower(busy_watts=50.0, idle_watts=10.0)
        assert PowerModel().arch_power("tpu", default=fallback) is fallback
        assert PowerModel().arch_power("tpu", default=None) is None

    def test_energy_us(self):
        model = PowerModel({"cpu": ArchPower(10.0, 1.0)})
        # 1 s busy + 1 s idle at (10, 1) W = 11 J.
        assert model.energy_us("cpu", 1e6, 1e6) == pytest.approx(11.0)


class TestEnergyOfResult:
    def test_busy_plus_idle_accounting(self, hetero_machine):
        program = make_fork_join_program(width=8, flops=5e8)
        sim = Simulator(
            hetero_machine.platform(),
            make_scheduler("multiprio"),
            AnalyticalPerfModel(hetero_machine.calibration()),
            seed=0,
        )
        res = sim.run(program)
        joules = energy_of_result(res, sim.platform)
        assert joules > 0
        # Upper bound: everything busy at max power the whole makespan.
        worst = sum(
            PowerModel().arch_power(a).busy_watts
            * sim.platform.n_workers(a)
            * res.makespan
            * 1e-6
            for a in sim.platform.archs
        )
        assert joules <= worst + 1e-9

    def test_longer_run_costs_more_idle_energy(self, hetero_machine):
        program = make_fork_join_program(width=4, flops=1e8)
        sim = Simulator(
            hetero_machine.platform(),
            make_scheduler("eager"),
            AnalyticalPerfModel(hetero_machine.calibration()),
            seed=0,
        )
        res = sim.run(program)
        base = energy_of_result(res, sim.platform)
        hot_idle = PowerModel({"cpu": ArchPower(12.0, 11.0)})
        assert energy_of_result(res, sim.platform, hot_idle) > base

    def test_dead_worker_horizon_is_clamped(self, hetero_machine):
        """Regression: a fail-stop casualty must draw idle watts only up
        to its death, not ``n_workers * makespan`` per arch."""
        program = make_fork_join_program(width=16, flops=5e8)
        pm = AnalyticalPerfModel(hetero_machine.calibration())

        def run(fault_model=None):
            sim = Simulator(
                hetero_machine.platform(), make_scheduler("multiprio"), pm,
                seed=0, fault_model=fault_model,
            )
            return sim.run(program), sim

        alive, sim = run()
        kill_at = alive.makespan * 0.1
        dead, sim = run(FaultModel(worker_kills={0: kill_at}))
        assert dead.death_us_by_worker[0] == pytest.approx(kill_at)
        got = energy_of_result(dead, sim.platform)
        # Recompute with worker 0's idle horizon stretched to the full
        # makespan (the old, buggy accounting): it must cost more.
        unclamped = dict(dead.death_us_by_worker)
        del unclamped[0]
        buggy = energy_of_result(
            type(dead)(**{**dead.__dict__, "death_us_by_worker": unclamped}),
            sim.platform,
        )
        idle_w = PowerModel().arch_power("cpu").idle_watts
        extra_j = (dead.makespan - kill_at) * idle_w * 1e-6
        assert buggy - got == pytest.approx(extra_j)


class TestEnergyAwareScheduler:
    def test_is_feasible(self, hetero_machine):
        for name in ("multiprio-energy", "multiprio-edp"):
            program = make_fork_join_program(width=16, flops=5e8)
            sim = Simulator(
                hetero_machine.platform(),
                make_scheduler(name),
                AnalyticalPerfModel(hetero_machine.calibration()),
                seed=0,
            )
            res = sim.run(program)
            check_schedule(program, res.trace, sim.platform.workers)

    def test_shifts_work_toward_cpus(self, hetero_machine):
        """The relaxation must increase (or keep) the CPU share vs the
        baseline on a GPU-favoured workload."""
        program = make_fork_join_program(width=48, flops=8e8)
        pm = AnalyticalPerfModel(hetero_machine.calibration())

        def cpu_share(sched):
            sim = Simulator(hetero_machine.platform(), sched, pm, seed=0)
            res = sim.run(program)
            total = sum(res.exec_time_by_arch.values())
            return res.exec_time_by_arch.get("cpu", 0.0) / total, res

        base_share, base_res = cpu_share(make_scheduler("multiprio"))
        for name in ("multiprio-energy", "multiprio-edp"):
            energy_share, energy_res = cpu_share(make_scheduler(name))
            assert energy_share >= base_share

    def test_registry_name(self):
        assert EnergyAwareMultiPrio().name == "multiprio-energy"
        assert type(make_scheduler("multiprio-energy")) is EnergyAwareMultiPrio

    def test_invalid_relax(self):
        with pytest.raises(Exception):
            EnergyAwareMultiPrio(energy_relax=0.0)

    def test_invalid_objective(self):
        with pytest.raises(Exception):
            EnergyAwareMultiPrio(objective="latency")

    @pytest.mark.parametrize("name", ["multiprio-energy", "multiprio-edp"])
    def test_neutral_watts_is_bit_identical_to_multiprio(
        self, hetero_machine, name
    ):
        """Differential pin: with equal watts everywhere the relaxation
        can never fire (a slower worker never wins δ·P or δ²·P), so the
        variant must reproduce the base scheduler's schedule exactly —
        in particular the base backlog and slowdown-cap guards apply
        verbatim to best-arch workers."""
        program = make_fork_join_program(width=32, flops=8e8)
        pm = AnalyticalPerfModel(hetero_machine.calibration())
        neutral = PowerModel({
            "cpu": ArchPower(100.0, 10.0),
            "cuda": ArchPower(100.0, 10.0),
        })

        def run(sched):
            sim = Simulator(
                hetero_machine.platform(), sched, pm,
                seed=0, record_trace=True,
            )
            return fingerprint(sim.run(program))

        assert run(make_scheduler(name, power=neutral)) == run(make_scheduler("multiprio"))


class TestEdpMultiPrio:
    def test_registry_name(self):
        sched = make_scheduler("multiprio-edp")
        assert type(sched) is EnergyAwareMultiPrio
        assert sched.name == "multiprio-edp"
        assert sched.objective == "edp"

    def test_objective_kwarg_equivalence(self, hetero_machine):
        """The registry alias is the objective parameter, schedule for
        schedule; the name follows the objective."""
        by_kwarg = EnergyAwareMultiPrio(objective="edp")
        assert by_kwarg.name == "multiprio-edp"
        assert make_scheduler("multiprio-edp", objective="energy").name == (
            "multiprio-energy"
        )
        program = make_fork_join_program(width=32, flops=8e8)
        pm = AnalyticalPerfModel(hetero_machine.calibration())

        def run(sched):
            sim = Simulator(
                hetero_machine.platform(), sched, pm, seed=0, record_trace=True
            )
            return fingerprint(sim.run(program))

        assert run(by_kwarg) == run(make_scheduler("multiprio-edp"))

    def test_edp_is_at_most_as_aggressive_as_energy(self, hetero_machine):
        """δ²·P improves only if δ·P does (whenever the lean worker is
        slower), so EDP can shift at most as much work off the
        accelerators as the plain energy objective."""
        program = make_fork_join_program(width=48, flops=8e8)
        pm = AnalyticalPerfModel(hetero_machine.calibration())

        def cpu_share(sched):
            sim = Simulator(hetero_machine.platform(), sched, pm, seed=0)
            res = sim.run(program)
            return res.exec_time_by_arch.get("cpu", 0.0) / sum(
                res.exec_time_by_arch.values()
            )

        edp = cpu_share(make_scheduler("multiprio-edp"))
        assert edp <= cpu_share(make_scheduler("multiprio-energy")) + 1e-12
