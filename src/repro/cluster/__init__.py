"""Multi-node platform and two-level hierarchical scheduling.

The paper evaluates MultiPrio on single heterogeneous nodes; this
subsystem composes many such nodes into a *cluster* joined by a network
fabric and adds a global placement tier above the unchanged per-node
scheduler — the Firmament-style architecture::

    from repro import SimSpec
    from repro.cluster import star_cluster
    from repro.workload import poisson_stream
    from repro.apps.dense import cholesky_program

    cluster = star_cluster(8, "small-hetero")
    stream = poisson_stream([lambda: cholesky_program(6, 512)],
                            rate_jobs_per_s=40.0, n_jobs=32)
    res = SimSpec(scheduler="multiprio").run_cluster(
        stream, cluster, placement="locality-aware")
    print(res.makespan_us, res.mean_utilization, res.imbalance)

Pieces:

* :mod:`repro.cluster.spec` — validated topology descriptions with
  star / fat-tree presets;
* :mod:`repro.cluster.topology` — the instantiated fabric: routed
  inter-node links (the PCIe :class:`~repro.runtime.memory.Link` model
  at network scale) and per-node perf models;
* :mod:`repro.cluster.placement` — the global scheduler tier and its
  policy registry (``pack`` / ``round-robin`` / ``random`` /
  ``load-aware`` / ``locality-aware``);
* :mod:`repro.cluster.sim` — :func:`simulate_cluster`, the engine
  behind :meth:`~repro.api.SimSpec.run_cluster`: global admission,
  placement, sharded per-node engines, and the cross-node dependency
  fixed point;
* :mod:`repro.cluster.result` — per-node utilization/imbalance plus
  the standard per-job stream metrics.
"""

from repro.cluster.spec import (
    ClusterNodeSpec,
    ClusterSpec,
    InterLinkSpec,
    fat_tree_cluster,
    star_cluster,
)
from repro.cluster.topology import Cluster
from repro.cluster.placement import (
    PLACEMENTS,
    GlobalScheduler,
    NodeView,
    PlacementPolicy,
    make_placement,
    placement_names,
)
from repro.cluster.result import (
    ClusterJobResult,
    ClusterResult,
    CrossTransfer,
    NodeStats,
    PlacementRecord,
)
from repro.cluster.sim import job_output_bytes, job_work_us, simulate_cluster

__all__ = [
    "Cluster",
    "ClusterJobResult",
    "ClusterNodeSpec",
    "ClusterResult",
    "ClusterSpec",
    "CrossTransfer",
    "GlobalScheduler",
    "InterLinkSpec",
    "NodeStats",
    "NodeView",
    "PLACEMENTS",
    "PlacementPolicy",
    "PlacementRecord",
    "fat_tree_cluster",
    "job_output_bytes",
    "job_work_us",
    "make_placement",
    "placement_names",
    "simulate_cluster",
    "star_cluster",
]
