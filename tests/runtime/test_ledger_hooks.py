"""All three run ledgers at once: overhead, resources and power together.

Each ledger has its own tests, and the ``rt.*`` / ``power.*``
differentials prove each one's no-op alone. This run engages all three
together with transient task failures and a worker death, under the
invariant checker, and pins what it produced: the schedule, the merged
``rt_stats``, the energy report and the order of the ledger-emitted
events. The pinned values were captured before the ledgers became the
engine's run hooks, so the hook path must reproduce them bit for bit.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.check.differential import fingerprint
from repro.experiments.energy_pareto import node_caps_for
from repro.obs.events import PowerCapThrottled, PriorityInversion, TaskFault
from repro.platform.machines import small_hetero
from repro.runtime.engine import Simulator
from repro.runtime.faults import FaultModel
from repro.runtime.overhead import SchedOverheadModel
from repro.runtime.perfmodel import AnalyticalPerfModel
from repro.runtime.power import PowerStateModel
from repro.runtime.resources import ResourceProtocol
from repro.runtime.stf import TaskFlow
from repro.runtime.task import AccessMode
from repro.schedulers.registry import make_scheduler


def contended_program():
    """40 tasks over 20 handles: two chains per handle, a third of the
    tasks holding ``dma`` and a third ``stage``, mixed priorities, and
    every odd task CPU-only."""
    tf = TaskFlow("three-ledgers")
    handles = [tf.data(1 << 18, label=f"d{i}") for i in range(20)]
    for i in range(40):
        resources = ("dma",) if i % 3 == 0 else ("stage",) if i % 3 == 1 else ()
        tf.submit(
            "gemm" if i % 2 else "potrf",
            [(handles[i % 20], AccessMode.RW)],
            flops=1e8 * (1 + i % 5),
            implementations=("cpu",) if i % 2 else ("cpu", "cuda"),
            resources=resources,
            priority=(7 * i) % 5,
        )
    return tf.program()


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


_KIND = {PriorityInversion: "I", PowerCapThrottled: "P", TaskFault: "F"}


@pytest.fixture(scope="module")
def run():
    machine = small_hetero()
    program = contended_program()
    sim = Simulator(
        machine.platform(),
        make_scheduler("multiprio"),
        AnalyticalPerfModel(machine.calibration()),
        seed=0,
        record_level="tasks",
        check_invariants=True,
        overhead=SchedOverheadModel(push_us=2.0, pop_us=3.0),
        resources=ResourceProtocol(mode="ceiling"),
        power=PowerStateModel(node_cap_watts=node_caps_for("small-hetero", 0.5)),
        fault_model=FaultModel(
            task_failure_rate=0.05, worker_kills={0: 5000.0}, seed=3
        ),
    )
    res = sim.run(program)
    return res, fingerprint(res, program)


class TestThreeLedgers:
    def test_schedule_is_pinned(self, run):
        res, fp = run
        assert res.makespan == 168788.14078674949
        assert _digest(fp) == "78eef06eab77450a"
        faults = res.faults
        assert (faults.task_failures, faults.retries) == (2, 2)
        assert (faults.worker_failures, faults.tasks_recovered) == (1, 2)

    def test_rt_stats_are_pinned(self, run):
        res, _ = run
        assert res.rt_stats == {
            "overhead_charged_us": 220.0,
            "overhead_n_push": 44.0,
            "overhead_n_pop": 44.0,
            "overhead_n_flush": 0.0,
            "overhead_n_flush_tasks": 0.0,
            "resource_n_grants": 30.0,
            "resource_n_blocked": 25.0,
            "resource_blocked_us": 619153.3807142515,
            "resource_n_inversions": 22.0,
            "power_n_admissions": 43.0,
            "power_n_throttled": 14.0,
            "power_throttle_delay_us": 0.0,
            "power_busy_us": 213303.66684451702,
        }
        # Key order is part of the contract: overhead, resource, power.
        assert list(res.rt_stats)[0] == "overhead_charged_us"
        assert list(res.rt_stats)[-1] == "power_busy_us"

    def test_energy_is_pinned(self, run):
        res, _ = run
        energy = res.energy
        assert energy.total_j == 7.453099817194723
        assert [(w.wid, w.busy_us, w.joules) for w in energy.by_worker] == [
            (0, 4392.304347826087, 0.05288996086956521),
            (1, 33524.63354037266, 0.442874654658385),
            (2, 41571.21739130434, 0.5370196857142856),
            (3, 34950.099378881976, 0.45955260496894396),
            (4, 39795.02133378605, 0.5162381918413216),
            (5, 18790.39085234585, 0.27048401520847126),
            (6, 40280.00000000003, 5.174040703933751),
        ]
        assert energy.by_worker[6].busy_us_by_state == {"eco": 40280.00000000003}

    def test_ledger_events_are_pinned(self, run):
        res, _ = run
        picked = [e for e in res.events if type(e) in _KIND]
        assert "".join(_KIND[type(e)] for e in picked) == (
            "IPIIIIIIPIPIIIIPIIPIIIFIIIPFIIPPPPPPPP"
        )
        assert _digest([(type(e).__name__, e) for e in picked]) == (
            "60e4d5997330eba6"
        )

    def test_busy_accounting_identities(self, run):
        res, _ = run
        busy = res.busy_us_by_worker
        # The ledger sums charges in event order, the engine per worker:
        # the same terms, so equal up to summation order.
        assert res.rt_stats["power_busy_us"] == pytest.approx(sum(busy), rel=1e-12)
        assert sum(busy) == pytest.approx(213303.6668445, rel=1e-12)
        for we in res.energy.by_worker:
            assert we.busy_us == busy[we.wid]
