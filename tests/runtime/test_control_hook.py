"""The admission control plane's run paths, pinned by digest.

The overload stream of ``test_fault_hook`` runs without faults, with
and without a 256-task submission window, through every admission
outcome: accepted, delayed, shed and evicted jobs. Each combination's
schedule, its job events and every ``TaskSubmit`` in order, and the
plane's counters are pinned by digest. The pins were captured before the
control plane became one of the engine's run hooks, so the hook path
must reproduce them bit for bit, admission event order included. A
subset also runs under the invariant checker.
"""

from __future__ import annotations

import hashlib
import itertools
import pickle

import pytest

from repro.apps.dense import cholesky_program
from repro.check.differential import fingerprint
from repro.control.plane import ControlConfig, default_overload_config
from repro.obs.events import (
    JobAdmitted,
    JobDelayed,
    JobDone,
    JobEvicted,
    JobRejected,
    JobSubmit,
    TaskSubmit,
)
from repro.platform import MACHINES
from repro.runtime.engine import Simulator
from repro.runtime.perfmodel import AnalyticalPerfModel
from repro.schedulers.registry import make_scheduler
from repro.utils.validation import ValidationError
from repro.workload.merge import merge_stream
from tests.runtime.test_fault_hook import MACHINE, SCHEDULERS, overload_stream

#: ``False``: per-event path; ``True``: batch_step=200, drain-on-idle off.
BATCH = (False, True)
#: Behind a 256-task window the plane delays two jobs and sheds none.
WINDOWS = (None, 256)

_JOB_EVENTS = (
    JobSubmit, JobAdmitted, JobDelayed, JobRejected, JobEvicted, JobDone,
    TaskSubmit,
)


def run(scheduler, *, batch=False, window=None, checker=False):
    """One controlled stream run; returns (result, plane)."""
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
    sim = Simulator(
        platform,
        make_scheduler(scheduler),
        AnalyticalPerfModel(machine.calibration()),
        seed=0,
        submission_window=window,
        record_level="tasks",
        check_invariants=checker,
        control=control,
        batch_step=200.0 if batch else None,
        batch_drain_on_idle=not batch,
    )
    res = sim.run(merge_stream(stream))
    return res, res.control


def digest(res, plane) -> str:
    value = (
        fingerprint(res),
        [e for e in res.events if type(e) in _JOB_EVENTS],
        plane.counters(),
    )
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


PINS = {
    ('multiprio', False, None): '1feb816113be63b1',
    ('multiprio', False, 256): '81f84561f8dd1235',
    ('multiprio', True, None): '62f377c5b5aaad27',
    ('multiprio', True, 256): '13f64d4bd6b02b51',
    ('dmdas', False, None): 'ccd644a4a6f097ee',
    ('dmdas', False, 256): 'dad288c536feebde',
    ('dmdas', True, None): '6eedd312b748840e',
    ('dmdas', True, 256): 'bb6e38bee961c4d5',
    ('multiqueue', False, None): '2b2f274c1dc30ba5',
    ('multiqueue', False, 256): '6e24f743760f4ce3',
    ('multiqueue', True, None): '361ade992281c31c',
    ('multiqueue', True, 256): '453ff0ab90617e57',
    ('eager', False, None): '22213ae45d99dd9f',
    ('eager', False, 256): '0179391a533f0298',
    ('eager', True, None): '4a6ed86897e9034c',
    ('eager', True, 256): 'b9c3fe1e535f5f4a',
}

GRID = list(itertools.product(SCHEDULERS, BATCH, WINDOWS))


@pytest.mark.parametrize("scheduler,batch,window", GRID)
def test_admission_is_pinned(scheduler, batch, window):
    res, plane = run(scheduler, batch=batch, window=window)
    assert digest(res, plane) == PINS[scheduler, batch, window]


def test_grid_covers_every_outcome():
    # Without a window the plane sheds and evicts; behind the 256-task
    # window it only delays.
    _, plane = run("multiprio")
    counts = plane.counters()
    assert counts["rejected"] > 0 and counts["evicted"] > 0
    _, plane = run("multiprio", window=256)
    counts = plane.counters()
    assert counts["delays"] > 0 and counts["completed"] == counts["arrived"]


@pytest.mark.parametrize("scheduler,batch,window", [
    ("multiprio", True, 256),
    ("dmdas", False, 256),
    ("multiqueue", True, None),
    ("eager", False, None),
])
def test_checker_clean_and_pinned(scheduler, batch, window):
    res, plane = run(scheduler, batch=batch, window=window, checker=True)
    assert digest(res, plane) == PINS[scheduler, batch, window]


def test_result_with_its_plane_pickles():
    res, plane = run("multiprio")
    assert pickle.loads(pickle.dumps(res)).control.counters() == plane.counters()


def test_identical_runs_give_equal_results():
    # The plane compares and prints by value (job records and counters),
    # so two identical controlled runs give equal SimResults.
    first, plane = run("multiprio")
    second, again = run("multiprio")
    assert again is not plane and again == plane
    assert second == first
    assert repr(again) == repr(plane)
    assert repr(plane).startswith("ControlPlane(") and " at 0x" not in repr(plane)
    # One job that settled differently breaks the equality.
    again.records()[0].status = "shed"
    assert again != plane


def test_plain_program_is_a_typed_error():
    # Admission decides per job, so a program without job spans has
    # nothing to decide on.
    machine = MACHINES[MACHINE]()
    sim = Simulator(
        machine.platform(),
        make_scheduler("eager"),
        AnalyticalPerfModel(machine.calibration()),
        control=ControlConfig.unlimited(),
    )
    with pytest.raises(ValidationError, match="merged job-stream program"):
        sim.run(cholesky_program(3, 256))
