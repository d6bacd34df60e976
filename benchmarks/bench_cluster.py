"""Cluster throughput bench: wall-clock cost of the two-level scheduler.

No paper counterpart — this guards the global tier added above the
engine: placement, per-node sub-simulations and the cross-node
dependency fixed point. It measures how fast ``SimSpec.run_cluster``
chews through a chained workflow stream (simulated jobs per wall-clock
second), so a regression in placement costing, fabric routing or the
release fixed point shows up as a throughput drop.

Standalone (the CI perf-smoke entry, warn-only)::

    python -m benchmarks.bench_cluster --json bench_cluster_ci.json
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from benchmarks.conftest import bench_scale
from repro.api import SimSpec
from repro.cluster import star_cluster
from repro.experiments.cluster_scale import (
    cluster_workload,
    format_cluster_experiment,
    run_cluster_experiment,
)


def measure_cluster(n_nodes: int, repeats: int = 3) -> dict:
    """Best-of-``repeats`` wall time for one placement-heavy run."""
    stream = cluster_workload(
        n_chains=2 * n_nodes, chain_len=3,
        rate_chains_per_s=50.0 * n_nodes,
    )
    spec = star_cluster(n_nodes)
    best = float("inf")
    transfers = 0
    for _ in range(repeats):
        t0 = time.perf_counter()
        res = SimSpec(scheduler="multiprio", isolated_baseline=False).run_cluster(
            stream, spec, placement="locality-aware"
        )
        best = min(best, time.perf_counter() - t0)
        assert len(res.jobs) == len(stream.jobs)
        transfers = len(res.transfers)
    return {
        "n_nodes": n_nodes,
        "n_jobs": len(stream.jobs),
        "n_cross_transfers": transfers,
        "wall_s": best,
        "jobs_per_s": len(stream.jobs) / best,
    }


def main(argv=None) -> int:
    """Measure and optionally write the JSON doc (always exit 0: CI
    treats cluster throughput as warn-only)."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", metavar="PATH", help="write measurements to PATH")
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats (best-of)")
    args = parser.parse_args(argv)
    doc = {"clusters": {}}
    for n_nodes in (4, 16):
        m = measure_cluster(n_nodes, repeats=args.repeats)
        doc["clusters"][f"star{n_nodes}"] = m
        print(
            f"star{n_nodes}: {m['n_jobs']} jobs, "
            f"{m['n_cross_transfers']} cross-node transfers, run "
            f"{m['wall_s'] * 1e3:.1f} ms ({m['jobs_per_s']:.0f} jobs/s)"
        )
    if args.json:
        Path(args.json).write_text(json.dumps(doc, indent=2) + "\n")
        print(f"measurements written to {args.json}")
    return 0


# -- pytest-benchmark guards -------------------------------------------------


def test_cluster_throughput(benchmark):
    """Simulated jobs per wall-clock second through the cluster facade."""
    n_nodes = max(4, int(8 * bench_scale()))
    stream = cluster_workload(
        n_chains=2 * n_nodes, rate_chains_per_s=50.0 * n_nodes
    )
    spec = star_cluster(n_nodes)

    def run():
        res = SimSpec(scheduler="multiprio", isolated_baseline=False).run_cluster(
            stream, spec, placement="locality-aware"
        )
        return len(res.jobs)

    assert benchmark(run) == len(stream.jobs)


def test_cluster_scale_sweep(benchmark, report):
    """The cluster-scale experiment end to end (reduced grid)."""
    result = benchmark.pedantic(
        run_cluster_experiment,
        kwargs={
            "policies": ("random", "locality-aware"),
            "node_counts": (max(4, int(8 * bench_scale())),),
        },
        rounds=1,
        iterations=1,
    )
    for row in result.rows:
        assert row.makespan_us > 0.0
        assert row.converged
        assert 0.0 < row.mean_utilization <= 1.0
    by_policy = {row.policy: row for row in result.rows}
    assert (
        by_policy["locality-aware"].makespan_us
        < by_policy["random"].makespan_us
    )
    report(format_cluster_experiment(result), "cluster_scale")


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
