"""Experiment result rows (built by sweeps) and reporting tests."""

import pytest

from repro.api import SimSpec
from repro.experiments.harness import speedup_table
from repro.experiments.reporting import format_series, format_table
from repro.platform.machines import small_hetero
from repro.sweep import CallSpec, SweepSpec, run_sweep
from tests.conftest import make_fork_join_program


def sweep_rows(schedulers, experiment="t", **grid):
    return run_sweep(SweepSpec.grid(
        experiment,
        machines=[small_hetero(n_cpus=2, n_gpus=1)],
        schedulers=schedulers,
        **grid,
    ))


@pytest.fixture(scope="module")
def grid_rows():
    return sweep_rows(
        ["eager", "dmdas", "multiprio"],
        programs=[CallSpec(make_fork_join_program, kwargs={"width": 8, "flops": 5e7})],
    )


class TestHarness:
    def test_sweep_row_matches_simspec_run(self):
        machine = small_hetero(n_cpus=2, n_gpus=1)
        (row,) = sweep_rows(
            ["eager"], experiment="x", seeds=[1],
            programs=[CallSpec(make_fork_join_program, kwargs={"width": 4})],
        )
        res = SimSpec(machine, "eager", seed=1).run(make_fork_join_program(width=4))
        assert (row.experiment, row.scheduler, row.machine) == ("x", "eager", machine.name)
        assert row.makespan_us == res.makespan > 0

    def test_grid_covers_cartesian_product(self, grid_rows):
        assert len(grid_rows) == 3
        assert {r.scheduler for r in grid_rows} == {"eager", "dmdas", "multiprio"}

    def test_speedup_table_reference(self, grid_rows):
        table = speedup_table(grid_rows, reference="dmdas")
        ((_, ratios),) = table.items()
        assert ratios["dmdas"] == pytest.approx(1.0)
        assert all(r > 0 for r in ratios.values())

    def test_speedup_missing_reference(self, grid_rows):
        assert speedup_table(grid_rows, reference="nonexistent") == {}

    def test_determinism_across_calls(self):
        def once():
            (row,) = sweep_rows(
                ["multiprio"], seeds=[5], noise_sigma=0.2,
                programs=[CallSpec(make_fork_join_program, kwargs={"width": 6})],
            )
            return row.makespan_us

        assert once() == once()


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [300, 4.123]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert all(len(line) == len(lines[1]) for line in lines[2:])

    def test_format_series(self):
        text = format_series("makespan", ["x1", "x2"], [1.0, 2.0], unit="ms")
        assert "makespan [ms]" in text
        assert "x2" in text
