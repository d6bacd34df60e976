"""Fault injection crossed with the control plane, batching and the window.

An overloaded job stream (sheds and evictions) runs with transient task
failures and, optionally, a worker death, under batched scheduling
(drain-on-idle on and off) and a submission window. Each combination's
schedule, fault counters, fault events and admission outcome are pinned
by digest. The pins were captured before fault injection became one of
the engine's run hooks, so the hook path must reproduce them bit for
bit. A subset also runs under the invariant checker.

The last test drives the one path where a pending retry finds its task
gone: a control-plane eviction cancels a task (SUBMITTED while its
retry backoff runs) of an admitted best-effort job.
"""

from __future__ import annotations

import functools
import hashlib
import itertools

import pytest

from repro.check.differential import fingerprint
from repro.control.plane import default_overload_config
from repro.experiments.overload import (
    estimate_job_cost_us,
    overload_workload,
    sustainable_rate_jobs_per_s,
)
from repro.obs.events import TaskEnd, TaskFault, TaskRetryScheduled, WorkerDeath
from repro.platform import MACHINES
from repro.runtime.engine import Simulator
from repro.runtime.faults import FaultModel
from repro.runtime.perfmodel import AnalyticalPerfModel
from repro.runtime.task import TaskState
from repro.schedulers.registry import make_scheduler
from repro.workload.merge import merge_stream

MACHINE = "small-hetero"
SCHEDULERS = ("multiprio", "dmdas", "multiqueue", "eager")
#: ``None``: per-event path; ``True`` / ``False``: batch_step=200 with
#: drain-on-idle on / off.
BATCH = (None, True, False)
WINDOWS = (None, 8)


@functools.cache
def overload_stream():
    """The control e2e tests' overload stream: 24 jobs from 6 tenants
    at four times the sustainable rate."""
    job_cost = estimate_job_cost_us(MACHINE)
    rate = 4.0 * sustainable_rate_jobs_per_s(MACHINE, job_cost)
    stream = overload_workload(rate_jobs_per_s=rate, n_tenants=6, n_jobs=24, seed=3)
    return stream, job_cost


def run(scheduler, fault_model, *, batch=None, window=None, checker=False):
    """One controlled stream run; returns (result, program, plane)."""
    stream, job_cost = overload_stream()
    machine = MACHINES[MACHINE]()
    platform = machine.platform()
    n_workers = len(platform.workers)
    control = default_overload_config(
        tenants=stream.tenants,
        sustainable_work_per_s=float(n_workers),
        job_cost_us=job_cost,
        max_inflight_jobs=2.0 * n_workers,
    )
    program = merge_stream(stream)
    sim = Simulator(
        platform,
        make_scheduler(scheduler),
        AnalyticalPerfModel(machine.calibration()),
        seed=0,
        submission_window=window,
        fault_model=fault_model,
        record_level="tasks",
        check_invariants=checker,
        control=control,
        batch_step=None if batch is None else 200.0,
        batch_drain_on_idle=True if batch is None else batch,
    )
    res = sim.run(program)
    return res, program, res.control


def faulty(kill: bool) -> FaultModel:
    return FaultModel(
        task_failure_rate=0.15,
        worker_kills={1: 20_000.0} if kill else {},
        max_retries=100,
        seed=5,
    )


_FAULT_EVENTS = (TaskFault, TaskRetryScheduled, WorkerDeath)


def digest(res, plane) -> str:
    value = (
        fingerprint(res),
        res.faults.as_dict(),
        res.n_cancelled,
        [e for e in res.events if type(e) in _FAULT_EVENTS],
        plane.counters(),
    )
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


PINS = {
    ('multiprio', None, False, None): '1d4a00b806090480',
    ('multiprio', None, False, 8): 'ac02a19efa1e7ba4',
    ('multiprio', None, True, None): '342fa9569bfa28ef',
    ('multiprio', None, True, 8): '10a860fa017d9dae',
    ('multiprio', True, False, None): 'b773457183d99156',
    ('multiprio', True, False, 8): 'ac02a19efa1e7ba4',
    ('multiprio', True, True, None): '86f1c1de200355cd',
    ('multiprio', True, True, 8): '10a860fa017d9dae',
    ('multiprio', False, False, None): '5c153c7f885605e4',
    ('multiprio', False, False, 8): '250afdbececb2da6',
    ('multiprio', False, True, None): 'f716e7233ab5d647',
    ('multiprio', False, True, 8): '70cc87bb121e0e60',
    ('dmdas', None, False, None): 'c6559d88988a1b73',
    ('dmdas', None, False, 8): '88e7db23d5321769',
    ('dmdas', None, True, None): '426f312b185a3a87',
    ('dmdas', None, True, 8): '51f8379d90a1679c',
    ('dmdas', True, False, None): '326182521b23b680',
    ('dmdas', True, False, 8): '88e7db23d5321769',
    ('dmdas', True, True, None): '8f8f6baaddef7c73',
    ('dmdas', True, True, 8): '51f8379d90a1679c',
    ('dmdas', False, False, None): '715dde7b1e545781',
    ('dmdas', False, False, 8): 'c775e3a2fb53d91c',
    ('dmdas', False, True, None): '2a581d5ccc06e52c',
    ('dmdas', False, True, 8): 'e6e4b0bbe9f78471',
    ('multiqueue', None, False, None): '675a2df6d13c4546',
    ('multiqueue', None, False, 8): 'd9359801efcd4f6f',
    ('multiqueue', None, True, None): '9af4562964167513',
    ('multiqueue', None, True, 8): 'eb4ea3df97ff265f',
    ('multiqueue', True, False, None): '62b9e33f2b62d0c9',
    ('multiqueue', True, False, 8): 'd9359801efcd4f6f',
    ('multiqueue', True, True, None): '8e298106462d4531',
    ('multiqueue', True, True, 8): 'eb4ea3df97ff265f',
    ('multiqueue', False, False, None): '5822ac57ed4eec20',
    ('multiqueue', False, False, 8): '0ae6d99c07113a9e',
    ('multiqueue', False, True, None): '5a9d2aee3b0d0c13',
    ('multiqueue', False, True, 8): 'a4be93ed5b8caaf6',
    ('eager', None, False, None): 'bc95766bafa54a89',
    ('eager', None, False, 8): '052d12dd90766251',
    ('eager', None, True, None): 'fbd8dde5e528f699',
    ('eager', None, True, 8): 'fd00d7af5cca5df2',
    ('eager', True, False, None): 'bc95766bafa54a89',
    ('eager', True, False, 8): '052d12dd90766251',
    ('eager', True, True, None): 'fbd8dde5e528f699',
    ('eager', True, True, 8): 'fd00d7af5cca5df2',
    ('eager', False, False, None): '5269fe7aeec9efe3',
    ('eager', False, False, 8): 'cdf38e8d07e62c54',
    ('eager', False, True, None): '547431c46a29ad19',
    ('eager', False, True, 8): '3184efd91a70ddcf',
}

GRID = list(itertools.product(SCHEDULERS, BATCH, (False, True), WINDOWS))


@pytest.mark.parametrize("scheduler,batch,kill,window", GRID)
def test_schedule_is_pinned(scheduler, batch, kill, window):
    res, _, plane = run(scheduler, faulty(kill), batch=batch, window=window)
    assert digest(res, plane) == PINS[scheduler, batch, kill, window]


# The checker is costly (~0.3-0.7 s a run); one run per scheduler, all
# with the worker death, alternating between evictions under no-drain
# batching and the window under drain-on-idle.
@pytest.mark.parametrize("scheduler,batch,window", [
    ("multiprio", False, None),
    ("dmdas", True, 8),
    ("multiqueue", False, None),
    ("eager", True, 8),
])
def test_checker_clean_and_pinned(scheduler, batch, window):
    res, _, plane = run(
        scheduler, faulty(True), batch=batch, window=window, checker=True
    )
    assert digest(res, plane) == PINS[scheduler, batch, True, window]
    assert res.faults.worker_failures == 1
    assert res.faults.retries == res.faults.task_failures > 0


def test_eviction_cancels_task_with_pending_retry():
    # A long backoff keeps failed tasks SUBMITTED while the overload
    # evicts best-effort jobs; the eviction cancels them, and their
    # retries must then leave them cancelled.
    res, program, plane = run(
        "multiprio",
        FaultModel(
            task_failure_rate=0.5, max_retries=100, retry_backoff_us=2000.0,
            seed=3,
        ),
        checker=True,
    )
    faults = {}
    retried = {}
    ended = set()
    for e in res.events:
        if isinstance(e, TaskFault):
            faults[e.tid] = faults.get(e.tid, 0) + 1
        elif isinstance(e, TaskRetryScheduled):
            retried[e.tid] = retried.get(e.tid, 0) + 1
        elif isinstance(e, TaskEnd):
            ended.add(e.tid)
    skipped = [tid for tid, n in faults.items() if retried.get(tid, 0) < n]
    assert skipped, "no retry found its task cancelled"
    for tid in skipped:
        assert program.tasks[tid].state is TaskState.CANCELLED
        assert tid not in ended
    counts = plane.counters()
    assert counts["evicted"] > 0
    assert (
        counts["completed"] + counts["rejected"] + counts["evicted"]
        == counts["arrived"]
    )
    n_skipped = sum(faults[tid] - retried.get(tid, 0) for tid in skipped)
    assert res.faults.retries == sum(retried.values()) + n_skipped
