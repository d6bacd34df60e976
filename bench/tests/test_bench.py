"""Tests of the benchmark itself, at ``--smoke`` sizes.

Run from the repository root: ``python -m pytest bench -q``.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from bench import ROOT, load_spec, use_repro

use_repro()

from bench import run  # noqa: E402
from bench.compare import compare, pair_by_seed, verdict  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

SPEC = load_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory) -> dict[str, dict]:
    """One short traced run per workload: untraced, traced, untraced repeats."""
    out = tmp_path_factory.mktemp("out")
    return {
        name: run.run_workload(name, WORKLOADS[name].default_seed, seconds=0, out=out,
                               trace=True, smoke=True)
        for name in NAMES
    }


def test_workloads_match_benchmark_json():
    assert list(WORKLOADS) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_emitted_with_its_unit(traced_runs, name):
    doc = traced_runs[name]
    assert doc["correct"], doc["failures"]
    for trace, group in ((False, "end_to_end"), (True, "per_layer")):
        line = json.loads(run.result_line(doc, trace))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["metrics"] == {
            m["name"]: {"value": line["metrics"][m["name"]]["value"], "unit": m["unit"]}
            for m in SPEC[group]
        }
    for m in SPEC["end_to_end"]:
        assert doc["metrics"][m["name"]]["value"] > 0
    assert set(doc["sim"]) <= set(run.SIM_UNITS)


@pytest.mark.parametrize("name", NAMES)
def test_self_times_sum_to_the_traced_facade_time(name, tmp_path):
    doc = run.repeat(name, WORKLOADS[name].default_seed, trace=True, smoke=True,
                     force_fail=False, out=tmp_path)
    assert (tmp_path / f"{name}.trace.json").is_file()
    layers = doc["layers"]
    # Every span under the facade call is in exactly one self-time metric.
    outside = {"workload.build.s", "host.gc.s", "trace.facade_s", "runtime.engine.main_s"}
    self_times = [
        value for key, value in layers.items()
        if (key.endswith(".s") or key == "runtime.engine.self_s") and key not in outside
    ]
    assert sum(self_times) == pytest.approx(layers["trace.facade_s"], rel=0.05)
    assert layers["runtime.engine.main_s"] <= layers["trace.facade_s"]


def test_two_repeats_give_identical_simulated_metrics(tmp_path):
    first, second = (
        run.repeat("tenant-stream", 3, trace=False, smoke=True, force_fail=False,
                   out=tmp_path)
        for _ in range(2)
    )
    assert not first["failed"] and not second["failed"]
    assert first["sim"] == second["sim"]


def test_a_failed_check_counts_and_exits_non_zero(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "dense-cholesky", "--smoke",
         "--seconds", "0", "--force-fail", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] > 0
    latest = json.loads((tmp_path / "latest.json").read_text())
    assert latest["workloads"]["dense-cholesky"]["error_frac"] > 0


def test_compare_verdicts():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]
    faster = [v * 0.8 for v in parent]
    assert verdict(parent, faster, "lower", 0.1)[0] == "gain"
    assert verdict(parent, [v * 1.2 for v in parent], "lower", 0.1)[0] == "regression"
    assert verdict(parent, [v * 1.02 for v in parent], "lower", 0.1)[0] == "ok"
    assert verdict(parent[:9], faster[:9], "lower", 0.1)[0] == "unresolved"
    noisy = [1.0, 1.5, 0.7, 1.3, 0.8, 1.2, 0.9, 1.4, 0.6, 1.1]
    assert verdict(noisy, [v * 1.05 for v in noisy], "lower", 0.1)[0] == "unresolved"
    # A wide spread hides no slowdown that every run shows.
    assert verdict(noisy, [v + 1.0 for v in noisy], "lower", 0.1)[0] == "regression"


def _doc(seed: int, run_s: float, sim: float = 1.0) -> dict:
    metrics = {m["name"]: {"value": run_s} for m in SPEC["end_to_end"]}
    return {"seed": seed, "metrics": metrics, "sim": {"makespan_us": sim},
            "attempted": 3, "failed": 0}


def test_compare_pairs_by_seed_and_reports_unresolved():
    parent = [_doc(s, 1.0) for s in range(10)]
    # A missing change run shifts no later pair onto another seed.
    change = [_doc(s, 1.0) for s in range(10) if s != 3]
    pairs = pair_by_seed(parent, change)
    assert [(p["seed"], c["seed"]) for p, c in pairs] == [(s, s) for s in range(10) if s != 3]
    rows, status = compare({NAMES[0]: parent}, {NAMES[0]: change})
    assert status == 2  # 9 pairs, and no runs at all of the other workloads
    assert rows[-1].startswith("summary:")
    full = {n: [_doc(s, 1.0) for s in range(10)] for n in NAMES}
    assert compare(full, full)[1] == 0
    changed = {n: [_doc(s, 1.0, sim=2.0) for s in range(10)] for n in NAMES}
    assert compare(full, changed)[1] == 1
