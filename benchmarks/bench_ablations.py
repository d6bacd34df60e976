"""Ablation benches for MultiPrio's design choices (DESIGN.md Section 7).

Four knobs, each exercised on the workload most sensitive to it:

* **eviction / pop condition** — Cholesky on the Fig. 4 platform;
* **locality window ε** — the paper's ε = 0.8 vs the tie-only default
  (see the deviation note in ``repro.schedulers.multiprio``), on Cholesky
  where tile reuse dominates transfers;
* **criticality (NOD)** — Cholesky, whose diamond DAG rewards releasing
  panel tasks early;
* **pop-condition variants** — raw-sum (the literal Alg. 2) vs
  drain-aware, and the slowdown cap, on the irregular FMM.
"""

import pytest

from benchmarks.conftest import bench_scale
from repro.apps.dense import cholesky_program
from repro.apps.fmm import fmm_program
from repro.schedulers.multiprio import MultiPrio
from repro.experiments.reporting import format_table
from repro.platform.machines import amd_a100, fig4_machine, intel_v100
from repro.runtime.engine import Simulator
from repro.runtime.perfmodel import AnalyticalPerfModel


def run(machine, program, sched, sigma=0.0, seed=0):
    sim = Simulator(
        machine.platform(),
        sched,
        AnalyticalPerfModel(machine.calibration(), noise_sigma=sigma),
        seed=seed,
        record_trace=False,
    )
    return sim.run(program).makespan


@pytest.fixture(scope="module")
def chol_program():
    n_tiles = max(10, int(20 * bench_scale()))
    return cholesky_program(n_tiles, 960, with_priorities=False)


@pytest.fixture(scope="module")
def fmm_workload():
    return fmm_program(
        n_particles=int(100_000 * bench_scale()),
        height=5,
        distribution="ellipsoid",
        seed=7,
    )


def test_ablation_eviction(benchmark, chol_program, report):
    machine = fig4_machine()

    def sweep():
        return {
            label: run(machine, chol_program, MultiPrio(eviction=ev))
            for label, ev in (("with-eviction", True), ("without-eviction", False))
        }

    spans = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        format_table(
            ["variant", "makespan ms"],
            [[k, f"{v / 1e3:.1f}"] for k, v in spans.items()],
            title="Ablation: pop condition / eviction (Cholesky, 1 GPU + 6 CPUs)",
        ),
        "ablation_eviction",
    )
    assert spans["with-eviction"] <= spans["without-eviction"]


def test_ablation_locality_eps(benchmark, chol_program, report):
    machine = intel_v100(1)
    eps_values = (0.0, 0.05, 0.2, 0.8)

    def sweep():
        return {
            eps: run(machine, chol_program, MultiPrio(locality_eps=eps))
            for eps in eps_values
        }

    spans = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        format_table(
            ["eps", "makespan ms"],
            [[e, f"{v / 1e3:.1f}"] for e, v in spans.items()],
            title="Ablation: locality window threshold (paper ε = 0.8)",
        ),
        "ablation_locality_eps",
    )
    best = min(spans.values())
    assert spans[0.0] <= 1.15 * best  # the tie-only default stays near-optimal


def test_ablation_locality_onoff(benchmark, chol_program, report):
    machine = intel_v100(1)

    def sweep():
        return {
            label: run(machine, chol_program, MultiPrio(use_locality=flag))
            for label, flag in (("locality", True), ("no-locality", False))
        }

    spans = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        format_table(
            ["variant", "makespan ms"],
            [[k, f"{v / 1e3:.1f}"] for k, v in spans.items()],
            title="Ablation: LS_SDH2 locality selection at POP",
        ),
        "ablation_locality_onoff",
    )
    assert spans["locality"] <= 1.2 * spans["no-locality"]


def test_ablation_criticality(benchmark, chol_program, report):
    machine = intel_v100(1)

    def sweep():
        return {
            label: run(machine, chol_program, MultiPrio(use_criticality=flag))
            for label, flag in (("with-NOD", True), ("without-NOD", False))
        }

    spans = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        format_table(
            ["variant", "makespan ms"],
            [[k, f"{v / 1e3:.1f}"] for k, v in spans.items()],
            title="Ablation: NOD criticality as the secondary heap key",
        ),
        "ablation_criticality",
    )
    assert spans["with-NOD"] <= 1.25 * spans["without-NOD"]


def test_ablation_pop_condition_variants(benchmark, fmm_workload, report):
    """Run on AMD-A100, where the interpretations diverge most: 62 weak
    CPUs + very fast GPUs punish over-permissive slow-worker admission
    (raw-sum) and the missing comparative-advantage cap."""
    machine = amd_a100(4)
    variants = {
        "drain+cap (default)": MultiPrio(),
        "raw-sum (literal Alg.2)": MultiPrio(drain_aware=False, slowdown_cap=None),
        "no-cap": MultiPrio(slowdown_cap=None),
        "evict-on-reject": MultiPrio(evict_on_reject=True),
    }

    def sweep():
        return {
            label: run(machine, fmm_workload, sched, sigma=0.15)
            for label, sched in variants.items()
        }

    spans = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        format_table(
            ["variant", "makespan ms"],
            [[k, f"{v / 1e3:.2f}"] for k, v in spans.items()],
            title="Ablation: pop-condition interpretations (FMM, amd-a100)",
        ),
        "ablation_pop_condition",
    )
    best = min(spans.values())
    assert spans["drain+cap (default)"] <= 1.15 * best
    assert spans["raw-sum (literal Alg.2)"] > spans["drain+cap (default)"]
