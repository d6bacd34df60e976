"""repro — reproduction of *Dynamic Tasks Scheduling with Multiple
Priorities on Heterogeneous Computing Systems* (MultiPrio, IPPS 2024).

Public API quick tour::

    from repro import SimSpec
    from repro.platform import small_hetero
    from repro.apps.dense import cholesky_program

    machine = small_hetero(n_cpus=6, n_gpus=1)
    program = cholesky_program(n_tiles=10, tile_size=512)
    result = SimSpec(machine, "multiprio").run(program)
    print(result.makespan, result.gflops)

:class:`SimSpec` is the one facade: :meth:`~SimSpec.run` for a task
graph, :meth:`~SimSpec.run_stream` for a job stream and
:meth:`~SimSpec.run_cluster` for a cluster. The underlying pieces
(:class:`Simulator`, :class:`MultiPrio`, the perf models, the
scheduler registry) remain public for fine-grained control.

Subpackages:

* :mod:`repro.core` — MultiPrio's heuristics (the contribution);
* :mod:`repro.runtime` — the StarPU-like simulated runtime substrate;
* :mod:`repro.schedulers` — baseline policies (dmdas, heteroprio, ...);
* :mod:`repro.apps` — dense LA / FMM / sparse-QR task-graph generators;
* :mod:`repro.platform` — the Intel-V100 and AMD-A100 machine models;
* :mod:`repro.workload` — online multi-tenant job streams;
* :mod:`repro.control` — the overload control plane: per-tenant
  quotas, admission (accept / delay / shed), priority-class eviction;
* :mod:`repro.cluster` — multi-node platforms and the two-level
  hierarchical scheduler;
* :mod:`repro.experiments` — one harness per paper table/figure.
"""

from repro.runtime import (
    AccessMode,
    Task,
    TaskFlow,
    Program,
    DataHandle,
    Simulator,
    SimResult,
    AnalyticalPerfModel,
    HistoryPerfModel,
    CalibrationTable,
    KernelCalibration,
    Platform,
    SchedOverheadModel,
    ResourceProtocol,
    ArchPower,
    PowerModel,
    PowerState,
    PowerStateModel,
    EnergyReport,
)
from repro.schedulers import MultiPrio
from repro.schedulers import make_scheduler, scheduler_names, register_scheduler
from repro.api import SimConfig, SimSpec
from repro.workload import (
    QOS_CLASSES,
    Job,
    JobResult,
    JobStream,
    StreamResult,
    closed_loop_stream,
    merge_stream,
    poisson_stream,
    trace_stream,
)
from repro.control import (
    ControlConfig,
    ControlPlane,
    ControlResult,
    QuotaAccountant,
    TenantQuota,
    default_overload_config,
)
from repro.cluster import (
    ClusterResult,
    ClusterSpec,
    fat_tree_cluster,
    simulate_cluster,
    star_cluster,
)

__version__ = "1.1.0"

__all__ = [
    "AccessMode",
    "Task",
    "TaskFlow",
    "Program",
    "DataHandle",
    "Simulator",
    "SimResult",
    "AnalyticalPerfModel",
    "HistoryPerfModel",
    "CalibrationTable",
    "KernelCalibration",
    "Platform",
    "SchedOverheadModel",
    "ResourceProtocol",
    "ArchPower",
    "PowerModel",
    "PowerState",
    "PowerStateModel",
    "EnergyReport",
    "MultiPrio",
    "make_scheduler",
    "scheduler_names",
    "register_scheduler",
    "SimConfig",
    "SimSpec",
    "Job",
    "JobStream",
    "JobResult",
    "StreamResult",
    "QOS_CLASSES",
    "closed_loop_stream",
    "merge_stream",
    "poisson_stream",
    "trace_stream",
    "ControlConfig",
    "ControlPlane",
    "ControlResult",
    "QuotaAccountant",
    "TenantQuota",
    "default_overload_config",
    "ClusterResult",
    "ClusterSpec",
    "fat_tree_cluster",
    "simulate_cluster",
    "star_cluster",
    "__version__",
]
