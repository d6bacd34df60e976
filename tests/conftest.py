"""Shared fixtures: small platforms, calibrations, simple programs."""

from __future__ import annotations

import pytest

from repro.obs.events import TaskEnd, WorkerDeath
from repro.obs.export import trace_from_events
from repro.platform.machines import cpu_only, small_hetero
from repro.runtime.perfmodel import AnalyticalPerfModel
from repro.runtime.stf import Program, TaskFlow
from repro.runtime.task import AccessMode


@pytest.fixture
def hetero_machine():
    """4 CPUs + 1 GPU with 2 streams."""
    return small_hetero(n_cpus=4, n_gpus=1, gpu_streams=2)


@pytest.fixture
def two_gpu_machine():
    """4 CPUs + 2 GPUs, one stream each."""
    return small_hetero(n_cpus=4, n_gpus=2, gpu_streams=1)


@pytest.fixture
def cpu_machine():
    """Homogeneous 4-CPU node."""
    return cpu_only(n_cpus=4)


@pytest.fixture
def perfmodel(hetero_machine):
    """Deterministic analytical model for the hetero machine."""
    return AnalyticalPerfModel(hetero_machine.calibration())


def trace_of(sim, res):
    """The :class:`~repro.runtime.trace.Trace` of a run recorded at
    ``record_level="tasks"`` or above."""
    return trace_from_events(res.events, sim.platform.workers)


def make_trace(workers, *runs, deaths=()):
    """The Trace of hand-written events: ``(task, worker, pop, start,
    end)`` runs in completion order and ``(worker, time)`` fail-stop
    deaths."""
    events = [
        TaskEnd(end, task.tid, task.type_name, worker.wid, worker.memory_node,
                pop, start, end)
        for task, worker, pop, start, end in runs
    ]
    events += [WorkerDeath(t, worker.wid, worker.name) for worker, t in deaths]
    return trace_from_events(events, workers)


def make_chain_program(n: int = 5, flops: float = 1e7) -> Program:
    """A linear chain t0 -> t1 -> ... -> t{n-1} through one handle."""
    flow = TaskFlow("chain")
    handle = flow.data(4096, label="h")
    flow.submit("gemm", [(handle, AccessMode.W)], flops=flops,
                implementations=("cpu", "cuda"))
    for _ in range(n - 1):
        flow.submit("gemm", [(handle, AccessMode.RW)], flops=flops,
                    implementations=("cpu", "cuda"))
    return flow.program()


def make_fork_join_program(width: int = 6, flops: float = 1e7) -> Program:
    """One source fans out to ``width`` tasks that join into one sink."""
    flow = TaskFlow("forkjoin")
    root = flow.data(4096, label="root")
    mids = [flow.data(4096, label=f"m{i}") for i in range(width)]
    sink = flow.data(4096, label="sink")
    flow.submit("gemm", [(root, AccessMode.W)], flops=flops,
                implementations=("cpu", "cuda"))
    for mid in mids:
        flow.submit("gemm", [(root, AccessMode.R), (mid, AccessMode.W)],
                    flops=flops, implementations=("cpu", "cuda"))
    flow.submit("gemm", [(m, AccessMode.R) for m in mids] + [(sink, AccessMode.W)],
                flops=flops, implementations=("cpu", "cuda"))
    return flow.program()


@pytest.fixture
def chain_program() -> Program:
    return make_chain_program()


@pytest.fixture
def fork_join_program() -> Program:
    return make_fork_join_program()
