"""The recorded-baseline check of ``benchmarks.bench_engine``."""

from __future__ import annotations

from benchmarks.bench_engine import check_against


def doc(**workloads):
    return {
        "workloads": {
            name: {"sched_core_s": core, "wall_s": 1.0, "makespan_us": makespan}
            for name, (core, makespan) in workloads.items()
        }
    }


def test_identical_run_passes(capsys):
    base = doc(a=(0.1, 1000.0), b=(0.2, 2000.0))
    assert check_against(base, base, None) == 0
    assert "DRIFT" not in capsys.readouterr().out


def test_makespan_drift_fails_on_any_workload(capsys):
    base = doc(a=(0.1, 1000.0), b=(0.2, 2000.0))
    drifted = doc(a=(0.1, 1000.0), b=(0.2, 2000.5))
    assert check_against(base, drifted, None) == 1
    out = capsys.readouterr().out
    assert "b: " in out and "[MAKESPAN DRIFT 2000.000 -> 2000.500us]" in out
    # The speed gate disabled (as CI runs it) does not mask the drift.
    assert check_against(base, drifted, 0.0) == 1


def test_slower_timing_only_warns_without_fail_under():
    base = doc(a=(0.1, 1000.0))
    slower = doc(a=(0.5, 1000.0))
    assert check_against(base, slower, None) == 0
    assert check_against(base, slower, 0.0) == 0
    assert check_against(base, slower, 0.9) == 1
