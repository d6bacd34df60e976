"""Cluster-scale sweep: placement policies across node counts.

No direct paper counterpart — the paper schedules one heterogeneous
node — but the natural next question for any per-node policy is how it
composes: put the unchanged MultiPrio engine on every node of an
8/32-node cluster and vary only the *global* placement tier. The
workload is a Poisson stream of small workflow chains (each job
``after`` its predecessor), so placement decides both load spread and
how many multi-megabyte intermediate results must cross the fabric.

Expected shape: ``random`` scatters chains across nodes and pays a
cross-node transfer per hop, ``pack`` piles everything on one node,
``load-aware`` balances but still scatters chains, and
``locality-aware`` keeps each chain on its node unless the queue there
is worth more than the transfer — so it should win on makespan with
the best imbalance among the locality-blind policies. Cells are
dispatched through :mod:`repro.sweep`, so ``jobs=N`` is bit-identical
to a serial run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.apps.dense import cholesky_program, lu_program
from repro.api import SimSpec
from repro.cluster.spec import ClusterSpec, fat_tree_cluster, star_cluster
from repro.experiments.reporting import format_table
from repro.sweep import CallSpec, run_tasks
from repro.workload.stream import Job, JobStream

DEFAULT_POLICIES: tuple[str, ...] = (
    "random", "pack", "load-aware", "locality-aware",
)

DEFAULT_NODE_COUNTS: tuple[int, ...] = (8, 32)

#: Chain arrivals per second *per node*. The offered load scales with
#: the cluster so every size runs in the heavily-overlapped regime
#: where placement policies separate.
DEFAULT_RATE_PER_NODE: float = 50.0


def cluster_workload(
    *,
    n_chains: int,
    chain_len: int = 3,
    rate_chains_per_s: float = 400.0,
    n_tiles: int = 4,
    tile_size: int = 512,
    seed: int = 0,
) -> JobStream:
    """A Poisson stream of dependent workflow chains.

    Chain heads arrive with exponential inter-arrival times; every
    later stage carries ``after=<previous jid>`` and the head's arrival
    time (the dependency, not the clock, gates its start). Stages
    alternate Cholesky and LU so both job shapes cross the fabric.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    mean_gap_us = 1e6 / rate_chains_per_s
    clock = 0.0
    jobs: list[Job] = []
    jid = 0
    for chain in range(n_chains):
        clock += float(rng.exponential(mean_gap_us))
        prev: int | None = None
        for stage in range(chain_len):
            factory = cholesky_program if (jid % 2 == 0) else lu_program
            jobs.append(Job(
                jid=jid,
                arrival_us=clock,
                program=factory(n_tiles, tile_size),
                tenant=f"chain{chain}",
                after=prev,
            ))
            prev = jid
            jid += 1
    return JobStream(
        name=f"chains-{n_chains}x{chain_len}@{rate_chains_per_s:g}",
        jobs=tuple(jobs),
    )


@dataclass
class ClusterRow:
    """One (placement policy, node count) cell of the sweep."""

    policy: str
    n_nodes: int
    n_jobs: int
    makespan_us: float
    throughput_jobs_per_s: float
    mean_utilization: float
    imbalance: float
    mean_latency_us: float
    p95_latency_us: float
    mean_slowdown: float
    max_slowdown: float
    n_cross_transfers: int
    inter_node_mb: float
    rounds: int
    converged: bool
    nodes: list[dict[str, Any]] = field(default_factory=list)
    jobs: list[dict[str, Any]] = field(default_factory=list)


@dataclass
class ClusterExperimentResult:
    """All rows of the placement × cluster-size sweep."""

    machine: str
    scheduler: str
    topology: str
    chain_len: int
    rate_per_node: float
    seed: int
    rows: list[ClusterRow] = field(default_factory=list)


def _make_cluster(topology: str, n_nodes: int, machine: str) -> ClusterSpec:
    if topology == "fat-tree":
        return fat_tree_cluster(n_nodes, machine)
    return star_cluster(n_nodes, machine)


def _cluster_cell(
    policy: str,
    n_nodes: int,
    *,
    machine: str,
    scheduler: str,
    topology: str,
    n_chains: int,
    chain_len: int,
    rate: float,
    n_tiles: int,
    tile_size: int,
    seed: int,
    check_invariants: bool,
) -> ClusterRow:
    """One cell, executed in whichever process the sweep picked."""
    stream = cluster_workload(
        n_chains=n_chains, chain_len=chain_len, rate_chains_per_s=rate,
        n_tiles=n_tiles, tile_size=tile_size, seed=seed,
    )
    res = SimSpec(
        scheduler=scheduler, check_invariants=check_invariants or None
    ).run_cluster(stream, _make_cluster(topology, n_nodes, machine), placement=policy)
    return ClusterRow(
        policy=policy,
        n_nodes=n_nodes,
        n_jobs=len(res.jobs),
        makespan_us=res.makespan_us,
        throughput_jobs_per_s=res.throughput_jobs_per_s,
        mean_utilization=res.mean_utilization,
        imbalance=res.imbalance,
        mean_latency_us=res.mean_latency_us,
        p95_latency_us=res.p95_latency_us,
        mean_slowdown=res.mean_slowdown or 0.0,
        max_slowdown=res.max_slowdown or 0.0,
        n_cross_transfers=len(res.transfers),
        inter_node_mb=res.total_inter_node_bytes / 2**20,
        rounds=res.rounds,
        converged=res.converged,
        nodes=[n.as_dict() for n in res.nodes],
        jobs=[j.as_dict() for j in res.jobs],
    )


def run_cluster_experiment(
    *,
    policies: Sequence[str] = DEFAULT_POLICIES,
    node_counts: Sequence[int] = DEFAULT_NODE_COUNTS,
    machine: str = "small-hetero",
    scheduler: str = "multiprio",
    topology: str = "star",
    chains_per_node: int = 2,
    chain_len: int = 3,
    rate_per_node: float = DEFAULT_RATE_PER_NODE,
    n_tiles: int = 4,
    tile_size: int = 512,
    seed: int = 0,
    check_invariants: bool = False,
    jobs: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> ClusterExperimentResult:
    """The (placement policy × node count) sweep.

    The workload scales with the cluster — ``chains_per_node`` chains
    and ``rate_per_node`` arrivals/s per node — so every size is
    compared under the same offered load per node. ``jobs=N`` is
    bit-identical to serial execution (cells are pure functions of
    their arguments).
    """
    cells = [
        CallSpec(
            _cluster_cell,
            (policy, int(n_nodes)),
            {
                "machine": machine,
                "scheduler": scheduler,
                "topology": topology,
                "n_chains": chains_per_node * int(n_nodes),
                "chain_len": chain_len,
                "rate": rate_per_node * int(n_nodes),
                "n_tiles": n_tiles,
                "tile_size": tile_size,
                "seed": seed,
                "check_invariants": check_invariants,
            },
        )
        for n_nodes in node_counts
        for policy in policies
    ]
    rows = run_tasks(cells, jobs=jobs, progress=progress)
    return ClusterExperimentResult(
        machine=machine, scheduler=scheduler, topology=topology,
        chain_len=chain_len, rate_per_node=rate_per_node, seed=seed,
        rows=list(rows),
    )


def format_cluster_experiment(result: ClusterExperimentResult) -> str:
    """The sweep as an aligned text table."""
    rows = [
        [
            f"{row.n_nodes}",
            row.policy,
            f"{row.makespan_us / 1e3:.1f}",
            f"{row.throughput_jobs_per_s:.1f}",
            f"{row.mean_utilization:.3f}",
            f"{row.imbalance:.2f}",
            f"{row.p95_latency_us / 1e3:.2f}",
            f"{row.mean_slowdown:.2f}",
            f"{row.n_cross_transfers}",
            f"{row.inter_node_mb:.0f}",
        ]
        for row in result.rows
    ]
    return format_table(
        [
            "nodes", "placement", "mk ms", "tput/s", "util", "imbal",
            "p95 ms", "slow", "xfers", "MiB",
        ],
        rows,
        title=(
            f"{result.topology} cluster of {result.machine} nodes, "
            f"{result.scheduler} per node (chains of {result.chain_len} "
            f"at {result.rate_per_node:g}/s/node, seed {result.seed})"
        ),
    )


def cluster_report(result: ClusterExperimentResult) -> dict[str, Any]:
    """JSON-ready report with per-node and per-job stats per cell."""
    return {
        "experiment": "cluster",
        "machine": result.machine,
        "scheduler": result.scheduler,
        "topology": result.topology,
        "chain_len": result.chain_len,
        "rate_per_node": result.rate_per_node,
        "seed": result.seed,
        "rows": [
            {
                "policy": row.policy,
                "n_nodes": row.n_nodes,
                "n_jobs": row.n_jobs,
                "makespan_us": row.makespan_us,
                "throughput_jobs_per_s": row.throughput_jobs_per_s,
                "mean_utilization": row.mean_utilization,
                "imbalance": row.imbalance,
                "mean_latency_us": row.mean_latency_us,
                "p95_latency_us": row.p95_latency_us,
                "mean_slowdown": row.mean_slowdown,
                "max_slowdown": row.max_slowdown,
                "n_cross_transfers": row.n_cross_transfers,
                "inter_node_mb": row.inter_node_mb,
                "rounds": row.rounds,
                "converged": row.converged,
                "nodes": row.nodes,
                "jobs": row.jobs,
            }
            for row in result.rows
        ],
    }


def write_cluster_report(result: ClusterExperimentResult, path: str) -> None:
    """Serialize :func:`cluster_report` to ``path``."""
    with open(path, "w") as fh:
        json.dump(cluster_report(result), fh, indent=2)
        fh.write("\n")
