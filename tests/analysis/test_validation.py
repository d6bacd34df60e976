"""Schedule feasibility checker tests (it must catch every violation)."""

import pytest

from repro.analysis.validation import check_schedule
from repro.runtime.stf import TaskFlow
from repro.runtime.task import AccessMode
from repro.runtime.worker import Worker
from repro.utils.validation import ValidationError
from tests.conftest import make_trace


@pytest.fixture
def setup():
    flow = TaskFlow()
    h = flow.data(8)
    a = flow.submit("a", [(h, AccessMode.W)], implementations=("cpu",))
    b = flow.submit("b", [(h, AccessMode.R)], implementations=("cpu",))
    program = flow.program()
    workers = [Worker(0, "cpu", 0), Worker(1, "cpu", 0)]
    return program, workers, (a, b)


def test_valid_schedule_passes(setup):
    program, workers, (a, b) = setup
    trace = make_trace(
        workers,
        (a, workers[0], 0, 0, 5),
        (b, workers[0], 5, 5, 8),
    )
    check_schedule(program, trace, workers)


def test_missing_task_detected(setup):
    program, workers, (a, _) = setup
    trace = make_trace(workers, (a, workers[0], 0, 0, 5))
    with pytest.raises(ValidationError, match="records"):
        check_schedule(program, trace, workers)


def test_dependency_violation_detected(setup):
    program, workers, (a, b) = setup
    trace = make_trace(
        workers,
        (a, workers[0], 0, 0, 5),
        (b, workers[1], 0, 3, 6),  # starts before a ends
    )
    with pytest.raises(ValidationError, match="before predecessor"):
        check_schedule(program, trace, workers)


def test_worker_overlap_detected(setup):
    program, workers, (a, b) = setup
    trace = make_trace(
        workers,
        (a, workers[0], 0, 0, 5),
        (b, workers[0], 5, 4.5, 8),  # overlaps on worker 0
    )
    with pytest.raises(ValidationError):
        check_schedule(program, trace, workers)


def test_wrong_architecture_detected():
    flow = TaskFlow()
    h = flow.data(8)
    t = flow.submit("t", [(h, AccessMode.W)], implementations=("cuda",))
    program = flow.program()
    workers = [Worker(0, "cpu", 0)]
    trace = make_trace(workers, (t, workers[0], 0, 0, 1))
    with pytest.raises(ValidationError, match="without an implementation"):
        check_schedule(program, trace, workers)


def test_inconsistent_timestamps_detected(setup):
    program, workers, (a, b) = setup
    trace = make_trace(
        workers,
        (a, workers[0], 0, 0, 5),
        (b, workers[1], 9, 9, 8),  # end < start
    )
    with pytest.raises(ValidationError, match="timestamps"):
        check_schedule(program, trace, workers)
