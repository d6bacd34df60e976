"""Differential harness: fingerprints, analytic bounds, the suite, CLI wiring."""

from __future__ import annotations

from repro.apps.dense import cholesky_program
from repro.check.differential import (
    CheckOutcome,
    builtin_apps,
    check_power_noop_equivalence,
    check_window_equivalence,
    fingerprint,
    makespan_lower_bounds,
    run_differential_suite,
)
from repro.cli import build_parser, cmd_check
from repro.platform.machines import small_hetero
from repro.runtime.engine import Simulator
from repro.runtime.perfmodel import AnalyticalPerfModel
from repro.schedulers.registry import make_scheduler
from tests.conftest import make_chain_program, make_fork_join_program


def run(program, machine, scheduler="multiprio", **kw):
    sim = Simulator(
        machine.platform(),
        make_scheduler(scheduler),
        AnalyticalPerfModel(machine.calibration()),
        seed=0,
        **kw,
    )
    return sim.run(program)


class TestFingerprint:
    def test_identical_runs_agree(self, hetero_machine):
        program = cholesky_program(5, 384)
        a = fingerprint(run(program, hetero_machine), program)
        b = fingerprint(run(program, hetero_machine), program)
        assert a == b

    def test_covers_every_task(self, hetero_machine):
        program = cholesky_program(5, 384)
        records, makespan, _ = fingerprint(run(program, hetero_machine), program)
        assert len(records) == len(program.tasks)
        assert makespan == max(end for *_, end in records)

    def test_scheduler_change_shows_up(self, hetero_machine):
        program = cholesky_program(5, 384)
        a = fingerprint(run(program, hetero_machine, "multiprio"), program)
        b = fingerprint(run(program, hetero_machine, "eager"), program)
        assert a != b

    def test_event_records_match_task_records(self, hetero_machine):
        program = cholesky_program(5, 384)
        res = run(program, hetero_machine, record_level="tasks")
        assert fingerprint(res) == fingerprint(res, program)


class TestLowerBounds:
    def test_chain_critical_path_is_the_whole_chain(self):
        machine = small_hetero(n_cpus=4, n_gpus=1)
        program = make_chain_program(n=6)
        cp, ww = makespan_lower_bounds(program, machine)
        assert cp > 0 and ww > 0
        # A pure chain has no parallelism: its critical path is all of
        # the work at best-arch speed, far above the work/width bound.
        assert cp >= ww * 4
        res = run(program, machine)
        assert res.makespan >= cp - 1e-6

    def test_fork_join_bounds_hold(self, hetero_machine):
        program = make_fork_join_program(width=10)
        cp, ww = makespan_lower_bounds(program, hetero_machine)
        res = run(program, hetero_machine)
        assert res.makespan >= max(cp, ww) - 1e-6


class TestSuite:
    def test_suite_passes_on_custom_app(self):
        outcomes = run_differential_suite(
            machine=small_hetero(n_cpus=4, n_gpus=1),
            schedulers=("multiprio",),
            apps=[("forkjoin", lambda: make_fork_join_program(width=8))],
        )
        assert outcomes
        failed = [o for o in outcomes if not o.passed]
        assert not failed, "\n".join(str(o) for o in failed)
        names = {o.name.split("[")[0] for o in outcomes}
        assert names == {
            "invariants", "invariants+faults", "determinism.repeat",
            "determinism.checker", "determinism.record_level",
            "bounds.makespan",
            "faults.zero_rate", "window.equivalence", "pipeline.bound",
            "control.noop", "control.noop_ledger",
            "cluster.single_node", "cluster.single_node_jobs",
            "batch.equivalence", "batch.nodrain_complete",
            "rt.overhead_noop", "rt.resources_noop", "rt.deadline_noop",
            "rt.ledgers_noop",
            "power.noop_ladder", "power.noop_metering",
            "power.metering_joules", "stream.baseline_dedup",
        }

    def test_progress_callback_sees_everything(self):
        seen = []
        outcomes = run_differential_suite(
            machine=small_hetero(n_cpus=2, n_gpus=1),
            schedulers=("eager",),
            apps=[("chain", lambda: make_chain_program(n=4))],
            progress=seen.append,
        )
        assert seen == outcomes

    def test_builtin_app_grids(self):
        quick = builtin_apps(quick=True)
        full = builtin_apps(quick=False)
        assert {name for name, _ in quick} <= {name for name, _ in full}
        for _, factory in quick:
            assert factory().tasks  # factories build fresh programs

    def test_outcome_formatting(self):
        ok = CheckOutcome("x", True, "unused when passing")
        bad = CheckOutcome("y", False, "went wrong")
        assert str(ok).startswith("[ok  ] x")
        assert "went wrong" in str(bad) and "FAIL" in str(bad)


class TestPowerNoopEquivalence:
    def test_passive_models_are_noops(self):
        """Zero-delta differential: the default ladder and the metering
        model must be bit-identical to a power-blind run, and the
        metered joules must match the post-hoc conversion exactly."""
        outcomes = check_power_noop_equivalence(
            small_hetero(n_cpus=2, n_gpus=1), schedulers=("multiprio",)
        )
        assert [o.name for o in outcomes] == [
            "power.noop_ladder[multiprio]",
            "power.noop_metering[multiprio]",
            "power.metering_joules[multiprio]",
        ]
        failed = [o for o in outcomes if not o.passed]
        assert not failed, "\n".join(str(o) for o in failed)


class TestWindowEquivalence:
    def test_never_binding_window_passes(self, hetero_machine):
        outcomes = check_window_equivalence(
            "forkjoin", make_fork_join_program(width=8),
            hetero_machine, "multiprio",
        )
        assert len(outcomes) == 2
        failed = [o for o in outcomes if not o.passed]
        assert not failed, "\n".join(str(o) for o in failed)

    def test_names_carry_the_window(self, hetero_machine):
        program = make_chain_program(n=4)
        outcomes = check_window_equivalence(
            "chain", program, hetero_machine, "eager"
        )
        assert {o.name for o in outcomes} == {
            f"window.equivalence[chain/eager/w={len(program.tasks)}]",
            f"window.equivalence[chain/eager/w={4 * len(program.tasks)}]",
        }


class TestCliWiring:
    def test_check_subcommand_parses(self):
        args = build_parser().parse_args(["check", "--quick"])
        assert args.func is cmd_check
        assert args.quick is True
        assert args.scheduler == ["multiprio", "dmdas", "heteroprio"]

    def test_check_subcommand_rejects_unknown_scheduler(self, capsys):
        import pytest

        with pytest.raises(SystemExit):
            build_parser().parse_args(["check", "--scheduler", "nonsense"])
        capsys.readouterr()
