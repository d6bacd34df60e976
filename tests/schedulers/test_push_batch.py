"""MultiPrio's bulk ``push_batch`` must be bit-identical to sequential
pushes: the override is an amortization, never a policy change."""

from __future__ import annotations

import pytest

from repro.api import SimConfig, SimSpec
from repro.apps.dense import cholesky_program, lu_program
from repro.check.differential import fingerprint
from repro.schedulers.base import Scheduler
from repro.schedulers.multiprio import MultiPrio
from repro.schedulers.registry import register_scheduler
from repro.workload.stream import poisson_stream


class SeqPushMultiPrio(MultiPrio):
    """MultiPrio with the bulk override disabled — the base class's
    per-task sequential pushes, the semantics the override must match."""

    push_batch = Scheduler.push_batch


register_scheduler("multiprio-seqpush-test", SeqPushMultiPrio, override=True)


def batched_stream():
    return poisson_stream(
        [
            ("chol", lambda: cholesky_program(4, 384)),
            ("lu", lambda: lu_program(4, 384)),
        ],
        rate_jobs_per_s=400.0,
        n_jobs=4,
        seed=3,
        tenants=("t0", "t1"),
        deadline=8000.0,
    )


def run(scheduler, sched_params):
    return SimSpec(
        "small-hetero", scheduler,
        config=SimConfig(
            record_level="tasks", batch_step=50.0, batch_drain_on_idle=False,
            sched_params=sched_params,
        ),
        isolated_baseline=False,
    ).run_stream(batched_stream())


@pytest.mark.parametrize("sched_params", [
    {},
    {"relaxed": 4},
    {"deadline_boost": 2000.0},
    {"use_criticality": False},
    {"arch_filtered_nod": True},
], ids=["default", "relaxed", "deadline-boost", "no-crit", "arch-nod"])
def test_bulk_push_batch_bit_identical(sched_params):
    bulk = run("multiprio", sched_params)
    seq = run("multiprio-seqpush-test", sched_params)
    assert fingerprint(bulk.sim) == fingerprint(seq.sim)
    assert [j.as_dict() for j in bulk.jobs] == [j.as_dict() for j in seq.jobs]


def test_bulk_override_actually_engaged():
    # Guard the guard: the batched engine path must call push_batch with
    # multi-task buffers, otherwise the parametrized equivalence above
    # only ever exercises the sequential fallback.
    calls: list[int] = []

    class Counting(MultiPrio):
        def push_batch(self, tasks):
            calls.append(len(tasks))
            super().push_batch(tasks)

    register_scheduler("multiprio-counting-test", Counting, override=True)
    run("multiprio-counting-test", {})
    assert calls and max(calls) > 1
